package core

import (
	"time"
	"unsafe"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
	"nemo/internal/metrics"
)

// NemoStats extends the common counters with the quantities the paper's
// design-breakdown and overhead sections report.
//
// Determinism under concurrency: driven serially (as every replay harness
// drives a shard), all counters are exact and reproducible. Under truly
// concurrent GETs racing writers, hit/miss outcomes and every write-side
// counter stay exact, but FalsePositiveReads, the index-cache
// lookup/miss pair (PBFGStats), the flash-read counters, and — on a
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
	// sacrificed objects); WriteBackBytes counts re-inserted eviction
	// survivors. Nemo's paper WA = DataBytesWritten / NewBytes (§5.2).
	NewBytes       uint64
	WriteBackBytes uint64
	WriteBackObjs  uint64
	Sacrificed     uint64

	DataBytesWritten  uint64
	IndexBytesWritten uint64

	FalsePositiveReads uint64
	CoolingRuns        uint64

	// FlushRecordsDropped counts SG flushes whose FlushRecord was discarded
	// because the retained history had already reached maxFlushLog. A
	// nonzero value means FlushLog covers only the run's first maxFlushLog
	// flushes — per-SG breakdown experiments on longer runs must either
	// accept the truncation or sample earlier.
	FlushRecordsDropped uint64
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
		SGsFlushed:          n.SGsFlushed + o.SGsFlushed,
		FillSum:             n.FillSum + o.FillSum,
		NewBytes:            n.NewBytes + o.NewBytes,
		WriteBackBytes:      n.WriteBackBytes + o.WriteBackBytes,
		WriteBackObjs:       n.WriteBackObjs + o.WriteBackObjs,
		Sacrificed:          n.Sacrificed + o.Sacrificed,
		DataBytesWritten:    n.DataBytesWritten + o.DataBytesWritten,
		IndexBytesWritten:   n.IndexBytesWritten + o.IndexBytesWritten,
		FalsePositiveReads:  n.FalsePositiveReads + o.FalsePositiveReads,
		CoolingRuns:         n.CoolingRuns + o.CoolingRuns,
		FlushRecordsDropped: n.FlushRecordsDropped + o.FlushRecordsDropped,
	}
}

// FlushRecord captures one SG flush for the per-SG breakdown experiments
// (Figures 17 and 18).
type FlushRecord struct {
	Fill     float64 // aggregate fill rate at flush
	NewObjs  int     // objects inserted fresh (sacrificed ones included)
	WBObjs   int     // objects re-inserted by hotness-aware writeback
	NewBytes uint64
	WBBytes  uint64
}

// maxFlushLog bounds the retained flush history: the log keeps the run's
// FIRST maxFlushLog flush records and silently retains nothing afterwards.
// The cap exists so a production-length replay cannot grow an unbounded
// per-flush history; every flush past it increments
// NemoStats.FlushRecordsDropped, so truncation is observable instead of
// silent.
const maxFlushLog = 4096

// FlushLog returns up to the first maxFlushLog per-SG flush records (see
// maxFlushLog for the truncation contract; NemoStats.FlushRecordsDropped
// counts what the cap discarded).
func (c *Cache) FlushLog() []FlushRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FlushRecord(nil), c.flushLog...)
}

// Extra returns the Nemo-specific counters; the index cache's lookups and
// misses are PBFGStats.
func (c *Cache) Extra() NemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.extra
}

// Stats implements cachelib.Engine. The breaker-derived fields are computed
// live: WriteRetries from the unlocked atomic counter, DegradedSeconds from
// the device clock (the in-progress window included), BreakerOpen as a
// 0/1 gauge of this shard's breaker position.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.WriteRetries = c.retries.Load()
	s.DegradedSeconds = uint64(c.breakerDegradedLocked() / time.Second)
	if c.brk.state != BreakerClosed {
		s.BreakerOpen = 1
	}
	return s
}

// mergeLatencyInto folds this cache's latency histogram into h under the
// cache lock (used by the sharded facade to aggregate shard histograms).
func (c *Cache) mergeLatencyInto(h *metrics.Histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.Merge(&c.hist)
}

// PBFGStats reports index-cache effectiveness: total sealed-PBFG lookups
// and the fraction requiring a flash fetch (Figure 19b's miss ratio).
func (c *Cache) PBFGStats() (lookups, misses uint64, missRatio float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, m := c.icache.lookups, c.icache.misses
	if l == 0 {
		return 0, 0, 0
	}
	return l, m, float64(m) / float64(l)
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

// MemoryOverhead returns the modeled per-object metadata cost.
func (c *Cache) MemoryOverhead() MemoryOverhead {
	c.mu.Lock()
	defer c.mu.Unlock()
	bfPerObj := bloom.BitsPerObject(c.cfg.BloomFPR) * c.cfg.CachedPBFGRatio
	hot := c.cfg.HotTrackTailRatio // 1 bit per object over the tracked tail
	// One index-group buffer (SetsPerSG PBFG pages, bounded by one SG worth
	// of pages) amortized over the objects the pool holds, as measured.
	bufferBits := float64(c.setsPerSG * c.pageSize * 8)
	poolObjs := 0
	for _, sg := range c.pool {
		poolObjs += sg.objCount
	}
	buffer := 0.0
	if poolObjs > 0 {
		buffer = bufferBits / float64(poolObjs)
	}
	m := MemoryOverhead{
		BloomBitsPerObj:  bfPerObj,
		HotBitsPerObj:    hot,
		BufferBitsPerObj: buffer,
	}
	m.TotalBitsPerObj = m.BloomBitsPerObj + m.HotBitsPerObj + m.BufferBitsPerObj
	return m
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
	// PaperMeta is their sum, ModelMeta what MemoryOverhead (Table 6)
	// charges the same Objects.
	PBFGCache, GroupBuffers, SGMeta, ModelMeta uint64
	// WriteBuffers is Shards × MemSGs × SG bytes, and one SG more per
	// flush between its seal and its commit.
	WriteBuffers uint64
	// FlushKits is the idle kits — at most max(1, Flushers), whatever the
	// shard count — plus those of flushes in flight (flushKit).
	FlushKits uint64
}

// PaperMeta is the index layer's bytes: the three parts' sum.
func (r Resident) PaperMeta() uint64 { return r.PBFGCache + r.GroupBuffers + r.SGMeta }

// Total is the resident bytes: index layer, write buffers and kits.
func (r Resident) Total() uint64 { return r.PaperMeta() + r.WriteBuffers + r.FlushKits }

// Fields lists the ledger as stats rows.
func (r Resident) Fields() []cachelib.Field {
	return []cachelib.Field{
		{Name: "resident_objects", Value: r.Objects},
		{Name: "resident_paper_meta_bytes", Value: r.PaperMeta()},
		{Name: "resident_pbfg_cache_bytes", Value: r.PBFGCache},
		{Name: "resident_group_buffer_bytes", Value: r.GroupBuffers},
		{Name: "resident_sg_meta_bytes", Value: r.SGMeta},
		{Name: "resident_model_meta_bytes", Value: r.ModelMeta},
		{Name: "resident_write_buffer_bytes", Value: r.WriteBuffers},
		{Name: "resident_flush_kit_bytes", Value: r.FlushKits},
		{Name: "resident_total_bytes", Value: r.Total()},
	}
}

// bytes is the memSG's resident size: slab, block headers, presence words.
func (sg *memSG) bytes() uint64 {
	return uint64(cap(sg.slab) + len(sg.sets)*int(unsafe.Sizeof(sg.sets[0])) + 8*len(sg.present))
}

// residentOwn is what this shard alone holds: all but the idle kits, which
// it shares with its siblings (Sharded.ResidentBytes counts those once).
func (c *Cache) residentOwn() (r Resident) {
	model := c.MemoryOverhead().TotalBitsPerObj
	c.mu.Lock()
	defer c.mu.Unlock()
	ic := c.icache
	r.PBFGCache = uint64(ic.slabBytes() + len(c.fetchBuf) + 8*cap(ic.queue))
	for _, g := range c.groups {
		r.PBFGCache += uint64(4 * cap(g.cached))
		r.GroupBuffers += uint64(cap(g.buf))
		for _, m := range g.members {
			r.SGMeta += uint64(unsafe.Sizeof(*m)) + uint64(4*cap(m.meta))
		}
	}
	for _, sg := range c.pool {
		r.Objects += uint64(sg.objCount)
	}
	for _, sg := range c.memq {
		r.Objects += uint64(sg.objCount())
		r.WriteBuffers += sg.bytes()
	}
	if c.sealed != nil {
		r.Objects += uint64(c.sealed.mem.objCount())
		r.WriteBuffers += c.sealed.mem.bytes()
	}
	if c.kit != nil {
		r.FlushKits = c.kit.bytes()
	}
	r.ModelMeta = uint64(model * float64(r.Objects) / 8)
	return r
}
