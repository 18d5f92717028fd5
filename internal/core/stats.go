package core

import (
	"time"
	"unsafe"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
)

// NemoStats extends the common counters with the quantities the paper's
// design-breakdown and overhead sections report.
//
// Determinism under concurrency: driven serially (as every replay harness
// drives a shard), all counters are exact and reproducible. Under truly
// concurrent GETs racing writers, hit/miss outcomes and every write-side
// counter stay exact, but FalsePositiveReads, the index cache's
// PBFGLookups/PBFGMisses (Readout), the flash-read counters, and — on a
// faulty device — ReadErrors may inflate: an epoch-conflicted read
// attempt's device reads (and read failures) are real and are counted
// before the attempt retries, and racing readers may duplicate a PBFG
// fetch before either publishes it (see readpath.go).
type NemoStats struct {
	// SGsFlushed counts SG flushes; FillSum accumulates their fill rates,
	// so FillSum/SGsFlushed is the mean flushed-SG fill rate (Figure 17).
	SGsFlushed uint64
	FillSum    float64

	// NewBytes counts user bytes newly written into flushed SGs (including
	// sacrificed objects) and NewObjs the same objects (Figure 18);
	// WriteBackBytes counts re-inserted eviction survivors. Nemo's paper
	// WA = DataBytesWritten / NewBytes (§5.2).
	NewBytes       uint64
	NewObjs        uint64
	WriteBackBytes uint64
	WriteBackObjs  uint64
	Sacrificed     uint64

	DataBytesWritten  uint64
	IndexBytesWritten uint64

	FalsePositiveReads uint64
	CoolingRuns        uint64
}

// PaperWA is the paper's write-amplification definition for Nemo (§5.2): SG
// bytes written divided by newly written object bytes (writeback excluded,
// sacrificed objects included). It is 1 before any flush.
func (n NemoStats) PaperWA() float64 {
	if n.NewBytes == 0 {
		return 1
	}
	return float64(n.DataBytesWritten) / float64(n.NewBytes)
}

// MeanFillRate is the mean fill rate of flushed SGs (Figure 17), 0 before
// any flush.
func (n NemoStats) MeanFillRate() float64 {
	if n.SGsFlushed == 0 {
		return 0
	}
	return n.FillSum / float64(n.SGsFlushed)
}

// Add returns the field-wise sum n + o, for aggregating per-shard counters.
func (n NemoStats) Add(o NemoStats) NemoStats {
	return NemoStats{
		SGsFlushed:         n.SGsFlushed + o.SGsFlushed,
		FillSum:            n.FillSum + o.FillSum,
		NewBytes:           n.NewBytes + o.NewBytes,
		NewObjs:            n.NewObjs + o.NewObjs,
		WriteBackBytes:     n.WriteBackBytes + o.WriteBackBytes,
		WriteBackObjs:      n.WriteBackObjs + o.WriteBackObjs,
		Sacrificed:         n.Sacrificed + o.Sacrificed,
		DataBytesWritten:   n.DataBytesWritten + o.DataBytesWritten,
		IndexBytesWritten:  n.IndexBytesWritten + o.IndexBytesWritten,
		FalsePositiveReads: n.FalsePositiveReads + o.FalsePositiveReads,
		CoolingRuns:        n.CoolingRuns + o.CoolingRuns,
	}
}

// Stats implements cachelib.Engine: the common counters alone, O(1) under
// the lock, for the replayer's polling (statsLocked).
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// statsLocked is the common counters with the breaker-derived fields
// computed live: WriteRetries from the unlocked atomic counter,
// DegradedSeconds from the device clock (the in-progress window included),
// BreakerOpen as a 0/1 gauge of this shard's breaker position.
func (c *Cache) statsLocked() cachelib.Stats {
	s := c.stats
	s.WriteRetries = c.retries.Load()
	s.DegradedSeconds = uint64(c.breakerDegradedLocked() / time.Second)
	if c.brk.state != BreakerClosed {
		s.BreakerOpen = 1
	}
	return s
}

// MemoryOverhead models Nemo's metadata cost in bits per object, following
// Table 6: cached Bloom-filter bits, tail-restricted 1-bit hotness, and the
// in-memory index-group buffer amortized over the objects the pool holds.
type MemoryOverhead struct {
	BloomBitsPerObj  float64 // filter cost × cached ratio
	HotBitsPerObj    float64 // 1 bit × tail ratio
	BufferBitsPerObj float64 // index-group buffer / pool objects (0 while the pool is empty)
	TotalBitsPerObj  float64
}

// Resident is the engine's resident-memory ledger: byte arithmetic over the
// slabs, arenas and buffers it holds between requests, split by what each
// part scales with. The stats verb prints it as resident_* rows.
type Resident struct {
	Objects uint64 // entries held: on-flash SGs' at their flush, plus in-memory SGs'
	// The index layer, which scales with Objects, by the part that holds it:
	// PBFGCache is the cached PBFG pages' arena with its queue and the
	// sealed groups' slot lists, and the PBFG fetch scratch; GroupBuffers the
	// unsealed groups' pages; SGMeta each held SG's struct and meta.
	// PaperMeta is their sum, ModelMeta what the model (Readout.Model,
	// Table 6) charges the same Objects.
	PBFGCache, GroupBuffers, SGMeta, ModelMeta uint64
	// WriteBuffers is the in-memory SGs' log chunks, set heads and presence
	// words: the memq's, and the sealed SG's between a flush's seal and its
	// commit (memSG.bytes). Sharded.Readout adds the idle chunks on the
	// shared list — at most one SG's bytes — once.
	WriteBuffers uint64
	// FlushKits is the idle kits — at most max(1, Flushers), whatever the
	// shard count — plus those of flushes in flight: each a window, filter
	// scratch and an empty SG's heads (flushKit).
	FlushKits uint64
}

// PaperMeta is the index layer's bytes: the three parts' sum.
func (r Resident) PaperMeta() uint64 { return r.PBFGCache + r.GroupBuffers + r.SGMeta }

// Total is the resident bytes: index layer, write buffers and kits.
func (r Resident) Total() uint64 { return r.PaperMeta() + r.WriteBuffers + r.FlushKits }

// Readout is one shard's whole read-out — the common counters, Nemo's own,
// the index cache's, the resident ledger and the breaker — taken under one
// hold of the shard lock, without allocating: plain fields kept under the
// lock and always on, as in fossil's block cache. Sharded.Readout is the
// shards' sum (Add), where the per-shard fields after Resident are zero.
type Readout struct {
	cachelib.Stats
	NemoStats
	// PBFGLookups counts sealed-PBFG lookups and PBFGMisses those that
	// fetched the page from flash (Figure 19b's miss ratio).
	PBFGLookups, PBFGMisses uint64
	// Resident leaves out the idle flush kits and log chunks, which
	// Sharded.Readout adds once.
	Resident

	Model            MemoryOverhead // Table 6's cost over the shard's pool objects
	Breaker          BreakerState
	ConsecutiveFails int    // the current run of flush failures
	LastWriteErr     string // the most recent write-path failure ("" if none)
}

// PBFGMissRatio is PBFGMisses/PBFGLookups, 0 before any lookup.
func (r Readout) PBFGMissRatio() float64 {
	if r.PBFGLookups == 0 {
		return 0
	}
	return float64(r.PBFGMisses) / float64(r.PBFGLookups)
}

// Add returns the field-wise sum r + o, the per-shard fields left zero.
func (r Readout) Add(o Readout) Readout {
	return Readout{
		Stats:       r.Stats.Add(o.Stats),
		NemoStats:   r.NemoStats.Add(o.NemoStats),
		PBFGLookups: r.PBFGLookups + o.PBFGLookups,
		PBFGMisses:  r.PBFGMisses + o.PBFGMisses,
		Resident: Resident{
			Objects:      r.Objects + o.Objects,
			PBFGCache:    r.PBFGCache + o.PBFGCache,
			GroupBuffers: r.GroupBuffers + o.GroupBuffers,
			SGMeta:       r.SGMeta + o.SGMeta,
			ModelMeta:    r.ModelMeta + o.ModelMeta,
			WriteBuffers: r.WriteBuffers + o.WriteBuffers,
			FlushKits:    r.FlushKits + o.FlushKits,
		},
	}
}

// Fields lists the read-out's counters in declaration order under their
// stats-verb names — engine_*, nemo_*, resident_* with the ledger's two sums
// — leaving out the float FillSum; a reflection test pins it to the struct.
func (r Readout) Fields() []cachelib.Field {
	return append(r.Stats.Fields(), []cachelib.Field{
		{Name: "nemo_sgs_flushed", Value: r.SGsFlushed},
		{Name: "nemo_new_bytes", Value: r.NewBytes},
		{Name: "nemo_new_objs", Value: r.NewObjs},
		{Name: "nemo_write_back_bytes", Value: r.WriteBackBytes},
		{Name: "nemo_write_back_objs", Value: r.WriteBackObjs},
		{Name: "nemo_sacrificed", Value: r.Sacrificed},
		{Name: "nemo_data_bytes_written", Value: r.DataBytesWritten},
		{Name: "nemo_index_bytes_written", Value: r.IndexBytesWritten},
		{Name: "nemo_false_positive_reads", Value: r.FalsePositiveReads},
		{Name: "nemo_cooling_runs", Value: r.CoolingRuns},
		{Name: "nemo_pbfg_lookups", Value: r.PBFGLookups},
		{Name: "nemo_pbfg_misses", Value: r.PBFGMisses},
		{Name: "resident_objects", Value: r.Objects},
		{Name: "resident_paper_meta_bytes", Value: r.PaperMeta()},
		{Name: "resident_pbfg_cache_bytes", Value: r.PBFGCache},
		{Name: "resident_group_buffer_bytes", Value: r.GroupBuffers},
		{Name: "resident_sg_meta_bytes", Value: r.SGMeta},
		{Name: "resident_model_meta_bytes", Value: r.ModelMeta},
		{Name: "resident_write_buffer_bytes", Value: r.WriteBuffers},
		{Name: "resident_flush_kit_bytes", Value: r.FlushKits},
		{Name: "resident_total_bytes", Value: r.Total()},
	}...)
}

// Readout returns this shard's read-out, taken under one hold of its lock.
func (c *Cache) Readout() Readout {
	c.mu.Lock()
	defer c.mu.Unlock()
	ic := c.icache
	r := Readout{
		Stats:            c.statsLocked(),
		NemoStats:        c.extra,
		PBFGLookups:      ic.lookups,
		PBFGMisses:       ic.misses,
		Breaker:          c.brk.state,
		ConsecutiveFails: c.brk.fails,
		LastWriteErr:     c.brk.lastErr,
	}
	r.PBFGCache = uint64(ic.slabBytes() + len(c.fetchBuf) + 8*cap(ic.queue))
	for _, g := range c.groups {
		r.PBFGCache += uint64(4 * cap(g.cached))
		r.GroupBuffers += uint64(cap(g.buf))
		for _, m := range g.members {
			r.SGMeta += uint64(unsafe.Sizeof(*m)) + uint64(4*cap(m.meta))
		}
	}
	poolObjs := 0
	for _, sg := range c.pool {
		poolObjs += sg.objCount
	}
	r.Objects = uint64(poolObjs)
	for _, sg := range c.memq {
		r.Objects += uint64(sg.objCount())
		r.WriteBuffers += sg.bytes()
	}
	if c.sealed != nil {
		r.Objects += uint64(c.sealed.objCount())
		r.WriteBuffers += c.sealed.bytes()
	}
	if c.kit != nil {
		r.FlushKits = c.kit.bytes()
	}
	// The model: cached filter bits, 1 hotness bit over the tracked tail, and
	// one index-group buffer (SetsPerSG PBFG pages) amortized over the
	// objects the pool holds, as measured.
	m := &r.Model
	m.BloomBitsPerObj = bloom.BitsPerObject(c.cfg.BloomFPR) * c.cfg.CachedPBFGRatio
	m.HotBitsPerObj = HotTrackTail
	if poolObjs > 0 {
		m.BufferBitsPerObj = float64(c.setsPerSG*c.pageSize*8) / float64(poolObjs)
	}
	m.TotalBitsPerObj = m.BloomBitsPerObj + m.HotBitsPerObj + m.BufferBitsPerObj
	r.ModelMeta = uint64(m.TotalBitsPerObj * float64(r.Objects) / 8)
	return r
}

// Fields implements cachelib.Engine: the read-out's rows.
func (c *Cache) Fields() []cachelib.Field { return c.Readout().Fields() }

// PBFGStats is a Readout shim for benchmark/ until ROADMAP direction 1(d).
func (c *Cache) PBFGStats() (lookups, misses uint64, missRatio float64) {
	r := c.Readout()
	return r.PBFGLookups, r.PBFGMisses, r.PBFGMissRatio()
}
