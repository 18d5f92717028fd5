package main

import "time"

// This file is the benchmark's fixed configuration: the system under test,
// the four workloads with their op-count constants, the Table 5 cluster
// shapes, and the metric tables BENCHMARK.json is checked against. Nothing
// here is read from the program under test — renames and deletions under
// internal/ cannot move a number.

// sutSpec is the geometry and engine settings of the system under test. The
// paper-scale value (paperSUT) is what every reported number runs on; tests
// shrink it.
type sutSpec struct {
	PageSize     int
	PagesPerZone int
	Shards       int
	DataZones    int // per shard
	Flushers     int

	// nemoserve's breaker and retry defaults.
	BreakerThreshold int
	WriteRetries     int
	RetryBackoff     time.Duration
}

// paperSUT: 4 shards x (64 data + 4 index) zones of 256 x 4 KiB pages = 272
// zones, 272 MiB image, 256 MiB SG pool (about 0.95 M tiny objects). More
// than 50 SGs per shard, so index groups really seal.
var paperSUT = sutSpec{
	PageSize:         4096,
	PagesPerZone:     256,
	Shards:           4,
	DataZones:        64,
	Flushers:         2,
	BreakerThreshold: 3,
	WriteRetries:     2,
	RetryBackoff:     2 * time.Millisecond,
}

// sgsPerIndexGroup is Table 3's index-group width (nemo.DefaultConfig's
// SGsPerIndexGroup); nemo.IndexZonesFor sizes the index pool from it.
const sgsPerIndexGroup = 50

func (s sutSpec) poolBytes() int64 {
	return int64(s.Shards) * int64(s.DataZones) * int64(s.PagesPerZone) * int64(s.PageSize)
}

// The set-block codec's per-block header and per-entry metadata bytes.
// nemoserve sets server.Config.MaxItemBytes to the page size minus both.
// Copied, not imported.
const (
	setBlockHeader   = 4
	setEntryOverhead = 8 + 1 + 2
)

// itemEnvelope is the serving layer's per-value flags prefix; it only enters
// the byte estimates that size prefills.
const itemEnvelope = 4

// nConns is the load model: a closed loop of exactly two clients, one
// goroutine and (on the wire) one connection each.
const nConns = 2

// segments is how many equal-op slices a timed window is cut into; timing
// metrics are the median over the slices, so one scheduler hiccup moves one
// slice and not the report.
const segments = 20

// tracedShare is the traced run's op count as a share of the untraced one.
const tracedShare = 3

// cluster is one Table 5 trace shape (after the paper's 2x/3x value
// downscaling of clusters 14 and 29).
type cluster struct {
	Name      string
	KeySize   int
	ValueMean int
	ValueStd  int
	ZipfAlpha float64
}

// table5 equals internal/trace.Clusters at the commit that defined the
// benchmark (pinned by TestTable5MatchesTracePackage).
var table5 = [4]cluster{
	{"cluster14", 96, 207, 100, 1.2959},
	{"cluster29", 36, 266, 120, 1.2323},
	{"cluster34", 33, 322, 150, 1.1401},
	{"cluster52", 20, 273, 130, 1.2117},
}

// maxValue clamps the normal value-size draw well under a 4 KiB set.
const maxValue = 1 << 11

// workload is one traffic mix. Counts are at scale 1; itersPerSec is the
// number of client-loop iterations (both clients together) in one --seconds
// second of timed window, calibrated so the window lasts about --seconds
// on the host that recorded benchmark/baseline at the defining commit. The
// count, not the clock, ends the window, so hit ratio and write
// amplification compare op for op between commits.
type workload struct {
	Name string
	Why  string

	Wire bool // through server + loopback TCP (false: library calls)

	KeySize   int // fixed-shape workloads; twitter_mix takes table5
	ValueSize int
	Keys      int // key-space size
	Prefill   int // SETs issued by set-up before the warm-up

	Depth   int // commands per round trip
	GetKeys int // keys per get command

	// Op mix per command, in 1/100: the rest are gets.
	SetPct, DelPct int
	// DemandFill SETs every key a get missed (its owner being the client
	// that asked: such workloads read only the keys they own).
	DemandFill bool

	ItersPerSec int
}

const (
	wlGetFits    = "get_fits"
	wlWriteChurn = "write_churn"
	wlTwitterMix = "twitter_mix"
	wlLibDirect  = "lib_direct"
)

var workloads = []workload{
	{
		Name: wlGetFits,
		Why:  "600k keys fit the pool; 98% single-key get, depth 1: server per-request cost and one pread per GET dominate, flush pipeline idle",
		Wire: true, KeySize: 24, ValueSize: 200, Keys: 600_000, Prefill: 1_200_000,
		Depth: 1, GetKeys: 1, SetPct: 2,
		ItersPerSec: 53_000,
	},
	{
		Name: wlWriteChurn,
		Why:  "4M keys, 4x the pool; 50% set / 48% get / 2% delete in depth-8 batches: continuous flush, eviction, writeback and backpressure beside reads",
		Wire: true, KeySize: 24, ValueSize: 200, Keys: 4_000_000, Prefill: 1_300_000,
		Depth: 8, GetKeys: 1, SetPct: 50, DelPct: 2,
		ItersPerSec: 20_000,
	},
	{
		Name:  wlTwitterMix,
		Why:   "the paper's four Table 5 clusters, Zipf over 8x the pool, 16-key gets with demand fill: hit ratio and ALWA to hold against Fig. 12, GetMany fan-out",
		Wire:  true, // keys and prefill are sized from the pool: twitterShape, newGenerator
		Depth: 1, GetKeys: 16, DemandFill: true,
		ItersPerSec: 10_000,
	},
	{
		Name: wlLibDirect,
		Why:  "no server: Get, and on a miss the synchronous Set, on the ShardedCache over 2M keys; the only place single-key Get and inline flush are measured",
		Wire: false, KeySize: 24, ValueSize: 200, Keys: 2_000_000, Prefill: 1_300_000,
		Depth: 1, GetKeys: 1, DemandFill: true,
		ItersPerSec: 160_000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// twitter_mix sizing relative to the SG pool.
const (
	twitterWSSPools     = 8   // working set, in pools
	twitterPrefillPools = 1.5 // bytes SET before the warm-up, in pools
)

// warmupShare is the untimed warm-up as a share of the timed window's
// iterations; the stream continues from it into the window.
const warmupShare = 0.05

// censusKeys is how many keys the traced run samples after the window to
// estimate resident objects; restartCycles and restartKeys size the restart
// ledger.
const (
	censusKeys    = 200_000
	restartCycles = 5
	restartKeys   = 20_000
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd lists what a user of the cache sees, measured with both
// decorators absent. TestBenchmarkJSONMatchesTables pins BENCHMARK.json to it.
// The timing bounds are the contract's ceiling: on the sandbox that recorded
// benchmark/baseline, ten-run quartile spreads of these metrics are 5-19%
// (the host has slow phases a minute or two long), and a bound is only
// useful above the noise. See README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "keys/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"hit_ratio", "ratio", "higher", 0.02},
	{"alwa", "ratio", "lower", 0.02},
	{"engine_heap_mib", "MiB", "lower", 0.05},
}

// perLayer lists the traced run's metrics, layer by layer. The latency
// percentiles head it because they were meant to be end-to-end: their ten-run
// spread here reaches 25% (p50) and 90% (p99), at or beyond the largest bound
// the contract allows, so they are reported without one. In a closed loop of
// two clients throughput_ops_s is 2 / mean latency, so latency stays gated.
var perLayer = []metricDef{
	{Name: "get_p50_us", Unit: "us", Better: "lower"},
	{Name: "get_p99_us", Unit: "us", Better: "lower"},
	{Name: "set_p50_us", Unit: "us", Better: "lower"},
	{Name: "set_p99_us", Unit: "us", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},

	{Name: "wire.get_p999_us", Unit: "us", Better: "lower"},
	{Name: "wire.set_p999_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_max_us", Unit: "us", Better: "lower"},

	{Name: "server.self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.engine_calls_per_req", Unit: "count", Better: "lower"},
	{Name: "server.keys_per_engine_call", Unit: "count", Better: "higher"},
	{Name: "server.parse_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "server.proto_errors", Unit: "count", Better: "lower"},
	{Name: "server.server_errors", Unit: "count", Better: "lower"},

	{Name: "core.get_calls", Unit: "count", Better: "lower"},
	{Name: "core.get_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.get_self_us_per_key", Unit: "us", Better: "lower"},
	{Name: "core.getmany_calls", Unit: "count", Better: "lower"},
	{Name: "core.getmany_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.getmany_self_us_per_key", Unit: "us", Better: "lower"},
	{Name: "core.set_calls", Unit: "count", Better: "lower"},
	{Name: "core.set_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.set_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.set_max_us", Unit: "us", Better: "lower"},
	{Name: "core.delete_calls", Unit: "count", Better: "lower"},
	{Name: "core.flash_reads_per_get", Unit: "count", Better: "lower"},
	{Name: "core.false_positive_reads_per_get", Unit: "count", Better: "lower"},
	{Name: "core.sgs_flushed", Unit: "count", Better: "lower"},
	{Name: "core.mean_fill_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.paper_wa", Unit: "ratio", Better: "lower"},
	{Name: "core.writeback_byte_share", Unit: "ratio", Better: "lower"},
	{Name: "core.index_byte_share", Unit: "ratio", Better: "lower"},
	{Name: "core.sacrificed_per_kset", Unit: "count", Better: "lower"},
	{Name: "core.evictions", Unit: "count", Better: "lower"},
	{Name: "core.read_errors", Unit: "count", Better: "lower"},
	{Name: "core.write_errors", Unit: "count", Better: "lower"},
	{Name: "core.degraded_rejects", Unit: "count", Better: "lower"},
	{Name: "core.stale_hits", Unit: "count", Better: "lower"},
	{Name: "core.resurrected_hits", Unit: "count", Better: "lower"},
	{Name: "core.resident_objs", Unit: "count", Better: "higher"},
	{Name: "core.heap_bits_per_obj", Unit: "bits", Better: "lower"},

	{Name: "index.pbfg_lookups_per_get", Unit: "count", Better: "lower"},
	{Name: "index.pbfg_miss_ratio", Unit: "ratio", Better: "lower"},

	{Name: "device.read_calls", Unit: "count", Better: "lower"},
	{Name: "device.read_pages", Unit: "count", Better: "lower"},
	{Name: "device.pages_per_read_call", Unit: "count", Better: "higher"},
	{Name: "device.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "device.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "device.append_calls", Unit: "count", Better: "lower"},
	{Name: "device.append_pages", Unit: "count", Better: "lower"},
	{Name: "device.append_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.append_us_per_page", Unit: "us", Better: "lower"},
	{Name: "device.reset_calls", Unit: "count", Better: "lower"},
	{Name: "device.reset_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.fg_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.bg_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.bytes_written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "device.errors", Unit: "count", Better: "lower"},

	{Name: "snapshot.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.file_bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.hit_retention", Unit: "ratio", Better: "higher"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_objects", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
}
