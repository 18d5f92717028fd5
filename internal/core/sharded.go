package core

import (
	"fmt"

	"nemo/internal/cachelib"
)

// Sharded is a hash-partitioned Nemo cache: Config.Shards independent Cache
// engines, each owning a disjoint slice of the shared device's zones, its
// own in-memory SGs, PBFG index, and lock. Routing is the embedded
// cachelib.ShardedEngine — the one sharded facade, the same type that
// fronts the four baselines: Get/Set/Delete/SetAsync go to the shard owning
// the key's shard lane and take only that shard's lock, GetMany splits into
// per-shard sub-batches, SetMany is the batch's Sets in order, Stats sums
// per-shard counters without any global lock. Each shard keeps its own
// read-latency histogram; none is merged here. Within one shard, concurrent
// GETs additionally overlap their flash I/O through the shard's three-phase
// read path (readpath.go), so read throughput scales with goroutines even
// on a single hot shard.
// What this type adds is what only Nemo has: the zone layout, the shared
// flusher pool, restore and checkpoint, and the Nemo-specific aggregates.
// It is the only way to build Nemo; a shard on its own has no lifecycle.
//
// With Shards = 1 a Sharded cache is bit-for-bit its one bare shard: the
// shard sees the identical configuration, zone layout, and request
// sequence, which the equivalence property test pins down.
type Sharded struct {
	*cachelib.ShardedEngine

	// shards are the engines behind ShardedEngine, as their concrete type.
	shards []*Cache

	// cfg is the facade-level Config as given to NewSharded (before per-shard
	// derivation); Checkpoint stamps snapshots with it so a restore can prove
	// it is rebuilding under the identical configuration.
	cfg Config

	// Warm-restart outcome, fixed at NewSharded time (see RestoreOutcome).
	restored   bool
	restoreErr error

	// pool is the background flusher pool shared by every shard when
	// Config.Flushers > 0 (nil otherwise): K flusher goroutines service
	// the deferred SG flushes of all shards, so SetAsync never flushes
	// inline on the inserting worker.
	pool *flusherPool

	// kits is the flush-kit free list every shard takes from (writepath.go).
	kits *kitPool
}

// NewSharded creates a Nemo cache of cfg.Shards shards (0 is 1; a negative
// count is an error). cfg.DataZones is the total SG pool across all shards
// and must divide evenly into shards of whole SGs; each shard additionally
// reserves its own index zones, laid out contiguously after its data zones
// from zone 0 on.
func NewSharded(cfg Config) (*Sharded, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("core: nil device")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: Shards %d must be non-negative", cfg.Shards)
	}
	if cfg.Flushers < 0 {
		return nil, fmt.Errorf("core: Flushers %d must be non-negative", cfg.Flushers)
	}
	n := max(cfg.Shards, 1)
	if cfg.DataZones%n != 0 {
		return nil, fmt.Errorf("core: DataZones %d not divisible by %d shards", cfg.DataZones, n)
	}
	// Each shard fills at most one zone at a time (flush writes zones to
	// completion sequentially), but shards flush concurrently, so the
	// device's open-zone budget must cover one zone per shard or a loaded
	// run would fail nondeterministically with ErrTooManyOpenZones.
	if limit := cfg.Device.MaxOpenZones(); limit > 0 && limit < n {
		return nil, fmt.Errorf("core: device allows %d open zones but %d shards may each hold one open", limit, n)
	}
	perData := cfg.DataZones / n
	s := &Sharded{shards: make([]*Cache, n), cfg: cfg}
	engines := make([]cachelib.Engine, n)
	// The shards are built cold and then filled from the snapshot, if there
	// is one. A refusal can come after some shards were filled, so the loop
	// builds them all cold once more: restore is all-or-nothing without
	// staging any shard's state on the side.
	for {
		s.kits = &kitPool{keep: max(1, cfg.Flushers)}
		base := 0
		for i := 0; i < n; i++ {
			scfg := cfg
			scfg.Shards = 1
			scfg.DataZones = perData
			scfg.Flushers = 0      // shards share the facade's pool, not one each
			scfg.SnapshotPath = "" // the facade restores and checkpoints all shards at once
			shard, err := newShard(scfg, base, s.kits)
			if err != nil {
				// Nothing to release: a shard holds no goroutine or file.
				return nil, fmt.Errorf("core: shard %d/%d: %w", i, n, err)
			}
			s.shards[i], engines[i] = shard, shard
			base += perData + IndexZonesFor(perData, cfg.SGsPerIndexGroup)
		}
		if cfg.SnapshotPath == "" || s.restoreErr != nil {
			break
		}
		if s.restored, s.restoreErr = tryRestore(cfg.SnapshotPath, cfg, s.shards); s.restoreErr == nil {
			break
		}
	}
	s.ShardedEngine, _ = cachelib.NewShardedEngine(engines) // errs only on no or nil shards
	if cfg.Flushers > 0 {
		s.pool = newFlusherPool(cfg.Flushers, n)
		for _, shard := range s.shards {
			shard.flusher = s.pool
		}
	}
	return s, nil
}

// Shard returns shard i (tests and diagnostics), shadowing the embedded
// facade's interface-typed accessor.
func (s *Sharded) Shard(i int) *Cache { return s.shards[i] }

// Close implements cachelib.Engine: the shared flusher pool is drained and
// stopped, a final warm-restart checkpoint is written when
// Config.SnapshotPath is set, then every shard is closed — all of them,
// even after a failure — and the first error is returned. With SnapshotPath
// set, Close is the checkpoint: a caller that also calls Checkpoint first
// writes the same state to the same file twice.
func (s *Sharded) Close() error {
	var first error
	if s.pool != nil {
		first = s.pool.stop()
		s.pool = nil
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.Checkpoint(s.cfg.SnapshotPath); err != nil && first == nil {
			first = err
		}
	}
	if err := s.ShardedEngine.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Drain implements cachelib.Engine, waiting out every deferred flush
// across all shards: the shards share one pool (a SetAsync's triggered flush
// is handed to it instead of running inline), so it drains once.
func (s *Sharded) Drain() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.drain()
}

// Flush forces every shard's front in-memory SG to flash — all of them, even
// after a failure — and returns the first error.
func (s *Sharded) Flush() error {
	var first error
	for _, c := range s.shards {
		if err := c.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Readout sums the shards' read-outs (Readout.Add), the shared idle flush
// kits and log chunks counted once; the per-shard fields are zero. Each
// shard is read under its own lock, one after another, with no global lock.
func (s *Sharded) Readout() Readout {
	var r Readout
	r.FlushKits, r.WriteBuffers = s.kits.idleBytes()
	for _, c := range s.shards {
		r = r.Add(c.Readout())
	}
	return r
}

// Fields implements cachelib.Engine: the summed read-out's rows.
func (s *Sharded) Fields() []cachelib.Field { return s.Readout().Fields() }

// Extra is a Readout shim for benchmark/ until ROADMAP direction 1(d).
func (s *Sharded) Extra() NemoStats { return s.Readout().NemoStats }

// PaperWA is a Readout shim for benchmark/ until ROADMAP direction 1(d).
func (s *Sharded) PaperWA() float64 { return s.Readout().PaperWA() }

// MeanFillRate is a Readout shim for benchmark/ until ROADMAP direction 1(d).
func (s *Sharded) MeanFillRate() float64 { return s.Readout().MeanFillRate() }
