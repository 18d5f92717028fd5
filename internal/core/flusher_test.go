package core

import (
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/trace"
)

// asyncFill drives the look-aside pattern through SetAsync.
func asyncFill(t *testing.T, s *Sharded, reqs []trace.Request) {
	t.Helper()
	for i := range reqs {
		req := &reqs[i]
		if _, hit := s.Get(req.Key); !hit {
			if err := s.SetAsync(req.Key, req.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAsyncFlushDrains is the flusher-pool liveness test: a replay through
// SetAsync must end, after Drain, with flushed SGs on flash and all the
// inserts accounted — the deferred flushes actually ran on the pool.
func TestAsyncFlushDrains(t *testing.T) {
	_, cfg := shardedGeom(t, 2, 8)
	cfg.Flushers = 2
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reqs := shardedTrace(20_000)
	asyncFill(t, s, reqs)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.Shard(0).PoolLen()+s.Shard(1).PoolLen() == 0 {
		t.Fatal("no SGs reached flash through the async pipeline")
	}
	st := s.Stats()
	if st.Sets == 0 || st.FlashBytesWritten == 0 {
		t.Fatalf("async replay wrote nothing: %+v", st)
	}
	ex := s.Readout().NemoStats
	if ex.SGsFlushed == 0 {
		t.Fatal("flusher pool executed no flushes")
	}
	// Drain is idempotent and cheap once quiescent.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncMatchesSyncQuality compares an async-flush replay against the
// synchronous replay of the identical trace: deferral may shift flush
// boundaries (that is the point — the inserting worker no longer waits),
// but the cache quality must stay in the same regime.
func TestAsyncMatchesSyncQuality(t *testing.T) {
	reqs := shardedTrace(30_000)

	_, syncCfg := shardedGeom(t, 2, 8)
	syncS, err := NewSharded(syncCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer syncS.Close()
	demandFill(t, syncS, reqs)

	_, asyncCfg := shardedGeom(t, 2, 8)
	asyncCfg.Flushers = 2
	asyncS, err := NewSharded(asyncCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer asyncS.Close()
	asyncFill(t, asyncS, reqs)
	if err := asyncS.Drain(); err != nil {
		t.Fatal(err)
	}

	syncHit := 1 - syncS.Stats().MissRatio()
	asyncHit := 1 - asyncS.Stats().MissRatio()
	if d := syncHit - asyncHit; d > 0.05 || d < -0.05 {
		t.Fatalf("async hit ratio %0.4f departs from sync %0.4f", asyncHit, syncHit)
	}
	if wa := asyncS.Readout().PaperWA(); wa > 2*syncS.Readout().PaperWA()+0.5 {
		t.Fatalf("async WA %0.3f vs sync %0.3f", wa, syncS.Readout().PaperWA())
	}
}

// TestSetAsyncWithoutPoolIsSync pins the degradation: with Flushers == 0,
// SetAsync behaves exactly like Set (flushes inline), so a single engine
// replay through either entry point yields identical statistics.
func TestSetAsyncWithoutPoolIsSync(t *testing.T) {
	reqs := shardedTrace(15_000)

	a := testCache(t, nil)
	for i := range reqs {
		if _, hit := a.Get(reqs[i].Key); !hit {
			if err := a.Set(reqs[i].Key, reqs[i].Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := testCache(t, nil)
	for i := range reqs {
		if _, hit := b.Get(reqs[i].Key); !hit {
			if err := b.SetAsync(reqs[i].Key, reqs[i].Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("poolless SetAsync diverged from Set:\nset:      %+v\nsetasync: %+v", a.Stats(), b.Stats())
	}
}

// TestUnshardedAsyncPool exercises a one-shard cache owning its pool.
func TestUnshardedAsyncPool(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	c := testShardedOn(t, dev, func(cfg *Config) { cfg.Flushers = 1 })
	for i := 0; i < 2_000; i++ {
		k, v := kv(i)
		if err := c.SetAsync(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if c.Shard(0).PoolLen() == 0 {
		t.Fatal("standalone async cache never flushed")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
