package setcache

import (
	"fmt"
	"time"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
	"nemo/internal/ftl"
	"nemo/internal/hashing"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Tier is the set-associative tier of a conventional SSD: one page-sized
// set per logical FTL page, rewritten whole on every merge, and one
// in-memory Bloom filter per set. The set cache is a Tier behind a mutex;
// Kangaroo is the same Tier behind a log (its HSet).
//
// A Tier has no lock and no counters of its own: the owning engine's mutex
// covers every call, and the Tier accounts reads, evictions, hits, read
// errors and GET latencies into the Stats and Histogram that engine hands
// over at construction.
type Tier struct {
	cfg      Config
	ftl      *ftl.FTL
	pageSize int
	filters  []*bloom.Filter // nil when cfg.DisableBloom
	scratch  []byte          // the page reads parse from and writes serialize into; never shared
	st       *cachelib.Stats
	hist     *metrics.Histogram
}

// NewTier builds a tier over cfg's zone range, applying cfg's defaults.
func NewTier(cfg Config, st *cachelib.Stats, hist *metrics.Histogram) (*Tier, error) {
	if cfg.Zones == 0 {
		cfg.Zones = cfg.Device.Zones() - cfg.ZoneBase
	}
	if cfg.OPRatio == 0 {
		cfg.OPRatio = 0.5
	}
	if cfg.TargetObjsPerSet == 0 {
		cfg.TargetObjsPerSet = 40
	}
	f, err := ftl.New(cfg.Device, cfg.ZoneBase, cfg.Zones, ftl.Config{OPRatio: cfg.OPRatio})
	if err != nil {
		return nil, fmt.Errorf("setcache: %w", err)
	}
	t := &Tier{
		cfg:      cfg,
		ftl:      f,
		pageSize: cfg.Device.PageSize(),
		scratch:  make([]byte, cfg.Device.PageSize()),
		st:       st,
		hist:     hist,
	}
	if !cfg.DisableBloom {
		t.filters = make([]*bloom.Filter, f.LogicalPages())
	}
	return t, nil
}

// BloomBitsPerObj is the in-memory filter budget of every set tier (this
// cache, Kangaroo's HSet, FairyWREN's pages): the paper's "lowest memory
// cost, 4 bits/obj".
const BloomBitsPerObj = 4

// bloomFPR is the false-positive rate of a filter at BloomBitsPerObj:
// 2^-(bits/1.44), the exponent rounded to a whole number.
const bloomFPR = 1.0 / 8

// RebuildFilter makes f the filter of exactly blk's entries, allocating it
// (for targetObjs objects at bloomFPR) on a set's first write, and returns it.
func RebuildFilter(f *bloom.Filter, blk *setblock.Block, targetObjs int) *bloom.Filter {
	if f == nil {
		f = bloom.New(targetObjs, bloomFPR)
	} else {
		f.Reset()
	}
	blk.Range(func(_ int, e setblock.Entry) bool {
		f.Add(e.FP)
		return true
	})
	return f
}

// NumSets returns the number of usable sets after over-provisioning.
func (t *Tier) NumSets() int { return t.ftl.LogicalPages() }

// SetOf maps a key fingerprint to its set.
func (t *Tier) SetOf(fp uint64) int {
	return int(hashing.Derive(fp, 0) % uint64(t.NumSets()))
}

// FTLStats returns the FTL's counters: pages the tier wrote, pages garbage
// collection relocated on top of them, and their ratio (DLWA).
func (t *Tier) FTLStats() ftl.Stats { return t.ftl.Stats() }

// Merge is the set's read-modify-write: read the set page (a set never
// written is empty and costs no read), insert objs in order, evicting the
// oldest residents until each fits, rewrite the page through the FTL and
// rebuild the set's filter.
func (t *Tier) Merge(set int, objs []setblock.Entry) error {
	blk, _, err := t.readSet(set)
	if err != nil {
		return err
	}
	if blk == nil {
		blk = setblock.New(t.pageSize)
	}
	for _, o := range objs {
		blk.InsertEvicting(o, func(setblock.Entry) { t.st.Evictions++ })
	}
	if _, err := t.ftl.Write(set, blk.AppendTo(t.scratch[:0])); err != nil {
		return err
	}
	if t.filters != nil {
		t.filters[set] = RebuildFilter(t.filters[set], blk, t.cfg.TargetObjsPerSet)
	}
	return nil
}

// readSet reads and parses set's page, counting the read; blk is nil for a
// set never written (no read) and on error. done is the read's completion.
func (t *Tier) readSet(set int) (blk *setblock.Block, done time.Duration, err error) {
	done, mapped, err := t.ftl.Read(set, t.scratch)
	if err != nil || !mapped {
		return nil, 0, err
	}
	t.st.FlashReadOps++
	t.st.FlashBytesRead += uint64(t.pageSize)
	blk, err = setblock.Parse(t.scratch, t.pageSize)
	return blk, done, err
}

// Get looks key up in set for a GET that started at start on the device
// clock. The page is read only if the set's filter admits fp and the page
// was ever written; only that read counts as a flash read and gives the GET
// its completion-time latency — every other outcome records the 1 µs floor.
// A page that cannot be read or parsed is counted in ReadErrors and served
// as a miss.
func (t *Tier) Get(set int, fp uint64, key []byte, start time.Duration) ([]byte, bool) {
	if t.filters != nil {
		if f := t.filters[set]; f == nil || !f.Test(fp) {
			t.hist.Record(time.Microsecond)
			return nil, false
		}
	}
	blk, done, err := t.readSet(set)
	if blk == nil {
		if err != nil {
			t.st.ReadErrors++
		}
		t.hist.Record(time.Microsecond)
		return nil, false
	}
	t.hist.Record(done - start + time.Microsecond)
	value, _, ok := blk.Lookup(fp, key)
	if !ok {
		return nil, false
	}
	t.st.Hits++
	return append([]byte(nil), value...), true
}
