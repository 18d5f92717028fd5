// Package core implements Nemo, the paper's contribution: a flash cache for
// tiny objects that reaches near-ideal write amplification by rearchitecting
// set-associative caching around Set-Groups (SGs) with a small hash space,
// an on-flash Bloom-filter index (PBFG) with an in-memory FIFO index cache,
// and hybrid 1-bit hotness tracking (§4 of the paper).
package core

import (
	"fmt"
	"time"

	"nemo/internal/device"
)

// Config configures a Nemo cache. DefaultConfig gives the Table 3 defaults
// scaled to the device geometry.
type Config struct {
	// Device is the zoned flash device — any implementation of the
	// internal/device contract (flashsim simulator, filedev file-backed).
	// One SG occupies exactly one zone; the set size equals the device page
	// size and SetsPerSG equals the device's pages per zone.
	Device device.Device

	// DataZones is the on-flash SG pool capacity in zones. The remaining
	// zones host the index pool; NewSharded validates that enough exist.
	DataZones int

	// Shards partitions the key space by hash into this many independent
	// engines, each owning a private slice of the device's zones, its own
	// in-memory SGs, PBFG index, and lock (0 is 1, negative an error).
	// NewSharded divides DataZones evenly across shards and lays the slices
	// out from zone 0, each one its DataZones/Shards data zones followed by
	// its index pool (IndexZonesFor) — Kangaroo-style set partitioning on a
	// shared ZNS drive. Requests for different shards never contend, which
	// is what lets the engine scale across cores.
	Shards int

	// Flushers is the size of the background flusher pool backing SetAsync:
	// full in-memory SGs are handed to this many
	// goroutines instead of flushing inline on the inserting worker, which
	// removes the flush from the Set path's p99. A deferred flush runs the
	// three-phase seal/build/commit protocol (writepath.go), holding the
	// shard lock only for its locked sub-phases, so foreground GETs and
	// SETs overlap the SG write itself. 0 (the default) disables the pool —
	// SetAsync then degrades to the synchronous Set, and every flush runs
	// inline on the goroutine whose insert triggered it. NewSharded builds
	// one pool that all shards share.
	Flushers int

	// FlushThreshold is p_th: the number of sacrificed (early-evicted)
	// objects tolerated before the front SG is flushed. The shipped system
	// uses a count-based threshold (Table 3 note).
	FlushThreshold int

	// SGsPerIndexGroup is the number of SGs whose set-level Bloom filters
	// form one index group (Table 3: 50; each PBFG page then packs the
	// filters of one intra-SG offset across the group's SGs).
	SGsPerIndexGroup int

	// BloomFPR is the PBFG false-positive rate (Table 3: 0.001). Each index
	// group sizes its set-level filters for it from what its first member's
	// fullest set holds (§5.1 sizes them for 40 objects; see filterBits).
	BloomFPR float64

	// CachedPBFGRatio is the fraction of PBFG pages kept in the in-memory
	// FIFO index cache (Table 3: 0.5).
	CachedPBFGRatio float64

	// CoolingWriteRatio triggers a cooling pass every time this fraction
	// of pool capacity has been written (Table 3: every 10% = 0.1).
	CoolingWriteRatio float64

	// BufferedSGs enables technique B: two buffered in-memory SGs (Table 3).
	// When false, a single in-memory SG is used and there is no rear-full
	// trigger — the "naïve" flush-on-collision behaviour of Figure 17.
	BufferedSGs bool

	// DelayedFlush enables technique P (sacrifice-based delayed flushing).
	DelayedFlush bool

	// Writeback enables technique W (hotness-aware writeback on eviction).
	Writeback bool

	// BreakerThreshold enables the per-shard device-fault circuit breaker
	// (health.go): this many consecutive write-path (flush) failures trip
	// the shard into read-only degraded mode, where SETs and DELETEs are
	// rejected cheaply with cachelib.ErrDegraded while GETs keep serving.
	// 0 (the default) disables the breaker entirely: a failed flush is
	// counted in Stats.WriteErrors and returned, and the shard keeps
	// accepting writes. Every equivalence/determinism pin runs this way.
	BreakerThreshold int

	// BreakerProbeAfter is how long (on the device clock) an open breaker
	// waits before admitting a half-open probe write. Defaults to 1s when
	// the breaker is enabled and this is zero.
	BreakerProbeAfter time.Duration

	// WriteRetries bounds in-place retries of a failed page append before
	// the flush fails (and, with the breaker enabled, the failure counts
	// against BreakerThreshold). Failed appends mutate no device state, so
	// retrying is safe on every backend; absorbed retries are counted in
	// Stats.WriteRetries. 0 (the default) disables retrying.
	WriteRetries int

	// RetryBackoff is the base delay between append retries, doubling per
	// attempt (real sleep on wall-clock backends, a clock advance on the
	// virtual-time simulator). 0 retries immediately.
	RetryBackoff time.Duration

	// SnapshotPath, when non-empty, enables warm restart (internal/snapshot):
	// NewSharded attempts to adopt the NEMO1 snapshot at this path —
	// validated against the device's geometry and generation stamp, and
	// silently starting cold when the file is missing or refused — and Close
	// checkpoints the engine back to it. Snapshots are strictly throwaway:
	// they only ever save a cold rebuild, never carry data, and are useless
	// once the device mutates without a new checkpoint. See
	// Sharded.Checkpoint and Sharded.RestoreOutcome.
	SnapshotPath string
}

// DefaultSGsPerIndexGroup is Table 3's index-group width. Device-sizing
// code pairs it with IndexZonesFor to reserve the index pool a
// DefaultConfig cache will actually claim.
const DefaultSGsPerIndexGroup = 50

// HotTrackTail is the oldest fraction of the SG pool whose SGs record
// hotness bits (Table 3: the "last 30% of the cache").
const HotTrackTail = 0.3

// rearFullRatio is the rear SG's fill rate at which the front SG flushes
// (the "rear SG is nearly full" trigger, §4.2).
const rearFullRatio = 0.95

// DefaultConfig returns Table 3 defaults scaled to the device: 2 in-memory
// SGs, count-based flush threshold proportional to SG size, 50 SGs per
// index group, 0.1% Bloom FPR, 50% cached PBFGs, cooling every 10% of
// capacity written, and all three fill-rate techniques enabled. The hotness
// tail (HotTrackTail) and the rear-full trigger are fixed, not configured.
func DefaultConfig(dev device.Device, dataZones int) Config {
	setsPerSG := dev.PagesPerZone()
	pth := setsPerSG / 16
	if pth < 8 {
		pth = 8
	}
	return Config{
		Device:            dev,
		DataZones:         dataZones,
		FlushThreshold:    pth,
		SGsPerIndexGroup:  DefaultSGsPerIndexGroup,
		BloomFPR:          0.001,
		CachedPBFGRatio:   0.5,
		CoolingWriteRatio: 0.1,
		BufferedSGs:       true,
		DelayedFlush:      true,
		Writeback:         true,
	}
}

// MemSGs is the number of in-memory SGs a shard buffers: 2 with
// BufferedSGs (Table 3), 1 without.
func (c Config) MemSGs() int {
	if c.BufferedSGs {
		return 2
	}
	return 1
}

// IndexZonesFor returns the number of index-pool zones a shard reserves for a
// pool of dataZones single-zone SGs grouped by sgsPerGroup: one zone per
// live group plus slack for the group being sealed while the oldest drains.
func IndexZonesFor(dataZones, sgsPerGroup int) int {
	return (dataZones+sgsPerGroup-1)/sgsPerGroup + 2
}

// DeviceZonesFor returns how many device zones NewSharded claims for a
// DefaultConfig cache of dataZones data zones in shards shards: each shard
// lays its own index pool after its slice of the SG pool. dataZones must be
// a multiple of shards (NewSharded refuses anything else).
func DeviceZonesFor(dataZones, shards int) int {
	perData := dataZones / shards
	return shards * (perData + IndexZonesFor(perData, DefaultSGsPerIndexGroup))
}

// validate checks a shard's derived Config for the shard whose zones start
// at base.
func (c Config) validate(base int) error {
	if c.DataZones < 2 {
		return fmt.Errorf("core: DataZones %d must hold at least 2 SGs", c.DataZones)
	}
	if c.FlushThreshold < 1 {
		return fmt.Errorf("core: FlushThreshold %d must be at least 1", c.FlushThreshold)
	}
	if c.SGsPerIndexGroup < 1 {
		return fmt.Errorf("core: SGsPerIndexGroup %d must be at least 1", c.SGsPerIndexGroup)
	}
	if c.BloomFPR <= 0 || c.BloomFPR >= 1 {
		return fmt.Errorf("core: BloomFPR %v out of range (0,1)", c.BloomFPR)
	}
	if c.CachedPBFGRatio < 0 || c.CachedPBFGRatio > 1 {
		return fmt.Errorf("core: CachedPBFGRatio %v out of range [0,1]", c.CachedPBFGRatio)
	}
	if c.CoolingWriteRatio <= 0 {
		return fmt.Errorf("core: CoolingWriteRatio %v must be positive", c.CoolingWriteRatio)
	}
	if c.BreakerThreshold < 0 {
		return fmt.Errorf("core: BreakerThreshold %d must be non-negative", c.BreakerThreshold)
	}
	if c.BreakerProbeAfter < 0 {
		return fmt.Errorf("core: BreakerProbeAfter %v must be non-negative", c.BreakerProbeAfter)
	}
	if c.WriteRetries < 0 {
		return fmt.Errorf("core: WriteRetries %d must be non-negative", c.WriteRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("core: RetryBackoff %v must be non-negative", c.RetryBackoff)
	}
	idx := IndexZonesFor(c.DataZones, c.SGsPerIndexGroup)
	if base+c.DataZones+idx > c.Device.Zones() {
		return fmt.Errorf("core: need zones [%d,%d) (%d data + %d index) but device has %d",
			base, base+c.DataZones+idx, c.DataZones, idx, c.Device.Zones())
	}
	return nil
}
