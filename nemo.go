package nemo

import (
	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/fairywren"
	"nemo/internal/filedev"
	"nemo/internal/flashsim"
	"nemo/internal/kangaroo"
	"nemo/internal/logcache"
	"nemo/internal/setcache"
	"nemo/internal/trace"
	"nemo/internal/vtime"
)

// Device is the zoned flash device contract all engines run on: append-only
// zones, page reads, whole-zone resets, per-zone write pointers, and
// activity accounting. Two implementations ship — the simulator (NewDevice)
// with a per-channel virtual-time latency model, and the file-backed real
// device (OpenFileDevice) with measured latencies. Engines cannot tell them
// apart except through the clock.
type Device = device.Device

// SimDevice is the simulated device implementation (see NewDevice).
type SimDevice = flashsim.Device

// DeviceConfig configures a simulated device; zero fields take defaults
// (4 KB pages, 256-page zones, 64 zones). Every simulated device has eight
// channels and its own virtual clock.
type DeviceConfig = flashsim.Config

// FileDeviceConfig configures a file-backed device (see OpenFileDevice).
type FileDeviceConfig = filedev.Config

// FileDevice is the file-backed device implementation: pwrite appends into a
// preallocated image and reads copied out of a read-only mapping of it (pread
// with Direct), with the same zone semantics as the simulator and real,
// measured latencies.
type FileDevice = filedev.Device

// DeviceStats is the device-level accounting snapshot.
type DeviceStats = device.Stats

// Clock is the clock shared by a device and its workload driver: virtual on
// the simulator, wall time on real backends.
type Clock = vtime.Clock

// NewDevice creates a simulated device.
func NewDevice(cfg DeviceConfig) *SimDevice { return flashsim.New(cfg) }

// OpenFileDevice opens (or creates) a file-backed device. By default the
// image is reformatted — every zone's write pointer rebuilds to zero;
// FileDeviceConfig.Persist instead restores a cleanly closed image from its
// superblock (the warm-restart path, paired with Config.SnapshotPath). The
// caller closes the device when done (engines never do).
func OpenFileDevice(cfg FileDeviceConfig) (*FileDevice, error) { return filedev.Open(cfg) }

// Config configures a Nemo cache; see DefaultConfig for Table 3 defaults.
type Config = core.Config

// CacheStats is Nemo's extended counter set (fill rates, writeback,
// sacrifices, index traffic).
type CacheStats = core.NemoStats

// MemoryOverhead is Nemo's modeled metadata cost in bits per object.
type MemoryOverhead = core.MemoryOverhead

// ShardedCache is a Nemo flash cache (the paper's contribution):
// Config.Shards independent engines over disjoint zone ranges of one device
// (0 is 1), with per-shard locking so requests for different shards proceed
// fully in parallel. It embeds a ShardedEngine over those shards for all
// routing and adds what is Nemo's: the zone layout, the shared flusher pool,
// checkpoint and restore, and Readout, every counter and the resident ledger
// summed over the shards. Shard(i).Readout adds what only a shard has (the
// Table 6 model, breaker position, last write error).
type ShardedCache = core.Sharded

// NewSharded creates a Nemo cache — the only constructor; cfg.DataZones is
// the total SG pool divided evenly across cfg.Shards shards. With one shard
// the cache behaves bit-for-bit like that shard driven on its own.
func NewSharded(cfg Config) (*ShardedCache, error) { return core.NewSharded(cfg) }

// DefaultConfig returns the paper's Table 3 configuration scaled to the
// device geometry, with a dataZones-zone SG pool.
func DefaultConfig(dev Device, dataZones int) Config {
	return core.DefaultConfig(dev, dataZones)
}

// IndexZonesFor reports how many device zones a shard reserves for the
// on-flash index pool given its SG pool size; a one-shard cache needs at
// least dataZones + IndexZonesFor(dataZones, 50) zones.
func IndexZonesFor(dataZones, sgsPerGroup int) int {
	return core.IndexZonesFor(dataZones, sgsPerGroup)
}

// DeviceZonesFor reports how many device zones NewSharded claims for a
// DefaultConfig cache of dataZones data zones in shards shards (every shard
// reserves its own index pool); dataZones must be a multiple of shards.
func DeviceZonesFor(dataZones, shards int) int { return core.DeviceZonesFor(dataZones, shards) }

// Engine is the one cache-engine interface — Get, Set, Delete, the batched
// GetMany, SetMany (the batch's Sets in order, stopping at the first
// error), the deferred SetAsync/Drain, Stats and Fields — implemented by
// Nemo, all four baselines and every sharded facade; Replay drives any
// Engine. Read latency is each engine's own histogram, outside the
// interface.
type Engine = cachelib.Engine

type EngineV2 = cachelib.Engine // the name benchmark/ knows Engine by

// ErrDegraded is returned by writes (Set/SetAsync/SetMany/Delete) while a
// shard's device-fault circuit breaker is open (Config.BreakerThreshold):
// the shard keeps serving reads but fast-rejects writes until a recovery
// probe succeeds. Match with errors.Is.
var ErrDegraded = cachelib.ErrDegraded

// Stats is the common engine counter set with the paper's
// write-amplification and miss-ratio definitions.
type Stats = cachelib.Stats

// ReplayConfig controls a Replay run.
type ReplayConfig = cachelib.ReplayConfig

// ReplayResult carries the metrics collected by Replay: the final counters,
// the windowed miss ratio and the timeline.
type ReplayResult = cachelib.ReplayResult

// Replay issues the stream's requests against the engine one at a time, on
// the calling goroutine: a GET that misses is demand-filled with SetAsync,
// and the stream's explicit SETs and DELETEs are replayed as SetAsync and
// Delete. With cfg.Clock set, each request advances it by 10 µs. It drains
// the engine at the end and collects write amplification and miss ratio.
func Replay(e Engine, s Stream, cfg ReplayConfig) (ReplayResult, error) {
	return cachelib.Replay(e, s, cfg)
}

// ParallelReplay replays a materialized (optionally mixed GET/SET/DELETE)
// trace with one goroutine per shard of a ShardedCache, one engine call per
// request as Replay makes them. Each shard sees its requests in trace order,
// so with inline flushing the final statistics equal a serial Replay's of
// the same trace whatever the goroutine schedule. Every write is a SetAsync,
// so Config.Flushers alone decides whether a flush runs on the replaying
// goroutine (0) or on the background pool; the replay drains the engine
// before it reads the final statistics, and an error names the shard and op
// index that failed.
func ParallelReplay(e Engine, reqs []Request) (Stats, error) {
	return cachelib.ParallelReplay(e, reqs)
}

// Materialize draws n requests from a stream into owned buffers so the
// resulting trace can be replayed concurrently (see ParallelReplay).
func Materialize(s Stream, n int) []Request { return trace.Materialize(s, n) }

// ShardedEngine is the hash-partitioned facade: independent engines over
// disjoint capacity partitions behind one Engine, routed by one
// shard lane, so every engine of a comparison run — ShardedCache, which
// embeds it, included — partitions the key space identically. With one shard
// it is behaviorally identical to the engine it wraps.
type ShardedEngine = cachelib.ShardedEngine

// NewShardedEngine wraps already-constructed per-shard engines (each owning
// a disjoint capacity partition) into one sharded facade.
func NewShardedEngine(engines []Engine) (*ShardedEngine, error) {
	return cachelib.NewShardedEngine(engines)
}

// LogCacheConfig configures the log-structured baseline.
type LogCacheConfig = logcache.Config

// NewLogCache creates the log-structured baseline ("Log" in Figure 12a):
// near-ideal write amplification, >100 bits/object of index memory.
func NewLogCache(cfg LogCacheConfig) (Engine, error) { return logcache.New(cfg) }

// SetCacheConfig configures the set-associative baseline.
type SetCacheConfig = setcache.Config

// NewSetCache creates the CacheLib-style set-associative baseline ("Set"):
// minimal memory, ~16-20× write amplification for tiny objects.
func NewSetCache(cfg SetCacheConfig) (Engine, error) { return setcache.New(cfg) }

// KangarooConfig configures the Kangaroo hierarchical baseline.
type KangarooConfig = kangaroo.Config

// NewKangaroo creates the Kangaroo baseline ("KG"): HLog + HSet over a
// conventional FTL with independent garbage collection (Case 3.1).
func NewKangaroo(cfg KangarooConfig) (Engine, error) { return kangaroo.New(cfg) }

// FairyWRENConfig configures the FairyWREN hierarchical baseline.
type FairyWRENConfig = fairywren.Config

// NewFairyWREN creates the FairyWREN baseline ("FW"): hierarchical cache on
// a zoned device with GC folded into log-to-set migration (Case 3.2).
func NewFairyWREN(cfg FairyWRENConfig) (Engine, error) { return fairywren.New(cfg) }

// Stream produces cache requests; see NewWorkload and the trace package
// re-exports below.
type Stream = trace.Stream

// Request is one generated cache request.
type Request = trace.Request

// ClusterConfig parameterizes a Twitter-like trace cluster (Table 5).
type ClusterConfig = trace.ClusterConfig

// Clusters returns the paper's four Table 5 cluster configurations.
func Clusters() []ClusterConfig { return append([]ClusterConfig(nil), trace.Clusters...) }

// NewWorkload builds the paper's default benchmark: the four Table 5
// clusters scaled to wssPerCluster bytes each and interleaved equally.
func NewWorkload(wssPerCluster int64, seed int64) (Stream, error) {
	return trace.DefaultInterleaved(wssPerCluster, seed)
}

// RequestKind discriminates the op types of a mixed trace (Request.Op).
type RequestKind = trace.Kind

// Mixed-trace request kinds.
const (
	KindGet    = trace.KindGet
	KindSet    = trace.KindSet
	KindDelete = trace.KindDelete
)

// NewMixedStream rewrites a fraction of a stream's requests into explicit
// SET and DELETE operations — the mixed workload a production cache service
// receives — while keeping the inner stream's key popularity and sizes.
func NewMixedStream(inner Stream, setFrac, delFrac float64, seed int64) (Stream, error) {
	return trace.NewMixed(inner, setFrac, delFrac, seed)
}
