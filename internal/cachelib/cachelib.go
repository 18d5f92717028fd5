// Package cachelib defines the engine contract every cache design in this
// repository implements, plus the request replayer used by all experiments.
// It plays the role CacheLib plays in the paper: a neutral harness that
// feeds identical request streams to interchangeable flash-cache engines
// and collects the paper's metrics (write amplification, miss ratio). Each
// engine keeps its own read-latency histogram; the contract does not carry
// it, and no facade merges one.
package cachelib

import (
	"errors"
	"time"
)

// ErrDegraded is returned by the write path (Set/SetAsync/SetMany/Delete)
// while an engine's device-fault circuit breaker is open: sustained write
// failures have tripped the shard into read-only degraded mode. GETs keep
// serving from memory and flash; writes are rejected cheaply — no
// insertion, no flush attempt — until a half-open probe proves the device
// healthy again. Serving surfaces map it to a dedicated protocol error
// (`SERVER_ERROR degraded`) so clients can tell "cache degraded" from
// "request malformed".
var ErrDegraded = errors.New("degraded: write path unhealthy, shard is read-only")

// Engine is the flash cache engine contract, the one interface every cache
// design in this repository implements and every harness, server and facade
// is written against. Implementations are safe for concurrent use; the
// serial replayer drives them single-threaded for determinism.
//
// Nemo batches reads, deletes and defers natively. Every engine takes
// SetMany from PerKey (a loop over its own Set), the baselines the batched
// read and deferred-write calls too, and, lacking an index to delete from,
// Set, KG and FW answer Delete with a DeleteShadow; see perkey.go.
//
// The op vocabulary of a mixed GET/SET/DELETE workload is trace.Kind,
// carried on every trace.Request — there is deliberately no second enum
// here.
type Engine interface {
	// Name identifies the engine in reports ("Nemo", "Log", "Set", "KG", "FW").
	Name() string
	// Get returns the cached value (a fresh copy) and whether it hit.
	Get(key []byte) (value []byte, hit bool)
	// Set inserts or updates an object. Engines may reject objects that
	// exceed their admission limits, returning an error.
	Set(key, value []byte) error
	// Delete invalidates key: a subsequent Get misses as long as the
	// deletion is still remembered. Log drops the exact index entry; Nemo,
	// which deliberately has no exact index, tombstones — in-memory copies
	// are removed and a tombstone entry shadows any still-cached flash copy
	// until it ages out of the FIFO pool.
	Delete(key []byte) error

	// GetMany looks up keys[i] for every i, returning parallel slices:
	// values[i] is a fresh copy (nil on miss) and hits[i] reports presence.
	// A sharded engine hashes each key once to route it, builds per-shard
	// sub-batches and fans them out in parallel, so an N-op batch costs one
	// engine call per touched shard instead of N; a Nemo shard then takes
	// one lock round-trip for its whole sub-batch.
	GetMany(keys [][]byte) (values [][]byte, hits []bool)
	// SetMany inserts keys[i] → values[i] as that sequence of Sets, in batch
	// order (repeated keys included: the later write wins), stopping at the
	// first error, which it returns: every key before the failing one is
	// applied, no later one is.
	SetMany(keys, values [][]byte) error

	// SetAsync inserts like Set but never flushes inline: for Nemo the full
	// SG's flush — the p99 outlier of the Set path — is handed to a
	// background flusher pool instead of running on the inserting
	// goroutine. Errors from deferred flushes surface on a later call, on
	// Drain, or on Close. An engine with nothing to defer sets synchronously.
	SetAsync(key, value []byte) error
	// Drain blocks until all deferred work has reached flash, returning
	// the first deferred error. After Drain, Stats reflects every SetAsync.
	Drain() error

	// Stats returns cumulative counters.
	Stats() Stats
	// Fields returns every counter the engine keeps as rows under their
	// stats-verb names; a wrapper that embeds an Engine forwards them.
	Fields() []Field
	// Close releases resources.
	Close() error
}

// Stats is the common counter set. Engines fill the fields that apply;
// the write-amplification definitions follow §5.2 of the paper.
type Stats struct {
	Gets    uint64
	Hits    uint64
	Sets    uint64
	Deletes uint64

	// LogicalBytes counts user object bytes admitted — for Nemo, new
	// objects only (writeback excluded, sacrificed objects included).
	LogicalBytes uint64
	// FlashBytesWritten counts application-level flash writes (ALWA
	// numerator). For host-FTL engines this already includes GC traffic.
	FlashBytesWritten uint64
	// DeviceBytesWritten additionally includes device-internal GC
	// (conventional-SSD engines); equals FlashBytesWritten otherwise.
	DeviceBytesWritten uint64
	// FlashBytesRead counts all flash reads (objects, index, writeback).
	FlashBytesRead uint64
	// FlashReadOps counts page read operations.
	FlashReadOps uint64
	// ReadErrors counts GET-path device read failures. The engines degrade
	// a failed read to a miss (a cache may always miss), but the failure is
	// never silent: it lands here and in the replay/compare tables, so an
	// unhealthy device shows up as a counter instead of a mystery hit-ratio
	// drop.
	ReadErrors uint64
	// WriteErrors counts write-path (flush-pipeline) failures: a device
	// error while appending, sealing, or evicting an SG fails that flush,
	// whose buffered objects are dropped (counted as Evictions). The
	// counter increments the moment the flush fails — in particular for
	// asynchronous flushes, whose error value otherwise surfaces only on
	// Drain/Close — so the replay/compare tables expose an unhealthy
	// device's write side as it happens.
	WriteErrors uint64
	// Evictions counts objects dropped from the cache.
	Evictions uint64
	// WriteRetries counts transient append failures absorbed by the bounded
	// retry-with-backoff loop (Config.WriteRetries) before they could count
	// against WriteErrors or the circuit breaker.
	WriteRetries uint64
	// DegradedRejects counts write operations rejected with ErrDegraded
	// while the device-fault circuit breaker was open.
	DegradedRejects uint64
	// DegradedEntered counts degraded windows: transitions of the breaker
	// from closed to open. A failed half-open probe re-opens the breaker but
	// continues the same window, so it does not increment this.
	DegradedEntered uint64
	// DegradedSeconds is the cumulative time spent degraded (breaker open or
	// half-open), in whole seconds, including the current window if one is in
	// progress. Summed across shards it is shard-seconds.
	DegradedSeconds uint64
	// BreakerOpen is a gauge: the number of shards whose breaker is
	// currently not closed (0 for a single healthy shard, up to Shards).
	BreakerOpen uint64
}

// Add returns the field-wise sum s + o, for aggregating per-shard counters.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Gets:               s.Gets + o.Gets,
		Hits:               s.Hits + o.Hits,
		Sets:               s.Sets + o.Sets,
		Deletes:            s.Deletes + o.Deletes,
		LogicalBytes:       s.LogicalBytes + o.LogicalBytes,
		FlashBytesWritten:  s.FlashBytesWritten + o.FlashBytesWritten,
		DeviceBytesWritten: s.DeviceBytesWritten + o.DeviceBytesWritten,
		FlashBytesRead:     s.FlashBytesRead + o.FlashBytesRead,
		FlashReadOps:       s.FlashReadOps + o.FlashReadOps,
		ReadErrors:         s.ReadErrors + o.ReadErrors,
		WriteErrors:        s.WriteErrors + o.WriteErrors,
		Evictions:          s.Evictions + o.Evictions,
		WriteRetries:       s.WriteRetries + o.WriteRetries,
		DegradedRejects:    s.DegradedRejects + o.DegradedRejects,
		DegradedEntered:    s.DegradedEntered + o.DegradedEntered,
		DegradedSeconds:    s.DegradedSeconds + o.DegradedSeconds,
		BreakerOpen:        s.BreakerOpen + o.BreakerOpen,
	}
}

// Field is one named counter of an engine's read-out, for surfaces that
// render stats generically (the memcached `stats` verb of internal/server,
// log lines, dashboards). Names are the verb's stable snake_case rows.
type Field struct {
	Name  string
	Value uint64
}

// Fields returns every Stats counter as an ordered engine_* name/value list,
// in struct-declaration order. Surfaces that iterate Fields automatically pick
// up counters added to Stats later; a reflection test pins the two in sync.
func (s Stats) Fields() []Field {
	return []Field{
		{"engine_gets", s.Gets},
		{"engine_hits", s.Hits},
		{"engine_sets", s.Sets},
		{"engine_deletes", s.Deletes},
		{"engine_logical_bytes", s.LogicalBytes},
		{"engine_flash_bytes_written", s.FlashBytesWritten},
		{"engine_device_bytes_written", s.DeviceBytesWritten},
		{"engine_flash_bytes_read", s.FlashBytesRead},
		{"engine_flash_read_ops", s.FlashReadOps},
		{"engine_read_errors", s.ReadErrors},
		{"engine_write_errors", s.WriteErrors},
		{"engine_evictions", s.Evictions},
		{"engine_write_retries", s.WriteRetries},
		{"engine_degraded_rejects", s.DegradedRejects},
		{"engine_degraded_entered", s.DegradedEntered},
		{"engine_degraded_seconds", s.DegradedSeconds},
		{"engine_breaker_open", s.BreakerOpen},
	}
}

// ALWA returns application-level write amplification (1 when no writes).
func (s Stats) ALWA() float64 {
	if s.LogicalBytes == 0 {
		return 1
	}
	return float64(s.FlashBytesWritten) / float64(s.LogicalBytes)
}

// TotalWA returns end-to-end write amplification including device GC.
func (s Stats) TotalWA() float64 {
	if s.LogicalBytes == 0 {
		return 1
	}
	dev := s.DeviceBytesWritten
	if dev < s.FlashBytesWritten {
		dev = s.FlashBytesWritten
	}
	return float64(dev) / float64(s.LogicalBytes)
}

// MissRatio returns 1 - hits/gets (0 when no gets).
func (s Stats) MissRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return 1 - float64(s.Hits)/float64(s.Gets)
}

// ReadAmplification returns flash bytes read per hit byte served; the §5.5
// comparison uses the ratio between engines.
func (s Stats) ReadAmplification() float64 {
	if s.Hits == 0 {
		return 0
	}
	return float64(s.FlashBytesRead) / float64(s.Hits)
}

// Clock abstracts the virtual clock the replayer advances; satisfied by
// *vtime.Clock.
type Clock interface {
	Now() time.Duration
	Advance(time.Duration) time.Duration
}
