package core

// Tests for the concurrent three-phase write path (writepath.go): sealed-SG
// visibility during an in-flight flush, write-fault surfacing through
// Stats.WriteErrors on both the sync and async paths, the flush-log cap
// counter, a SET/flush-vs-GET race stress, and the steady-state Set
// allocation pin.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/flashsim"
	"nemo/internal/hashing"
	"nemo/internal/setblock"
)

func wpKey(i int) []byte   { return []byte(fmt.Sprintf("wp-key-%06d-pad", i)) }
func wpValue(i int) []byte { return []byte(fmt.Sprintf("wp-value-%06d-padpadpad", i)) }

// TestSealedSGServesReadsDuringFlush pins the sealed-SG window: while a
// flush is in flight (its first device append deterministically parked on
// a blocking write hook, with the shard lock released), the flushing SG's
// objects must stay readable, deletable (via tombstone), and overwritable
// — and the outcomes must survive the flush's commit.
func TestSealedSGServesReadsDuringFlush(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 1 << 20 // no sacrifice-triggered flushes
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	for i := 0; i < n; i++ {
		if err := c.Set(wpKey(i), wpValue(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Park the flush's first append: the hook blocks on the owner
	// goroutine during the unlocked build phase, so the shard lock is free
	// while we probe the sealed window.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	dev.SetWriteFault(func(zone int) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	flushErr := make(chan error, 1)
	go func() { flushErr <- c.Flush() }()
	<-entered

	// The flush is mid-build: every flushed key must still hit from the
	// sealed SG.
	for i := 0; i < n; i++ {
		v, hit := c.Get(wpKey(i))
		if !hit || string(v) != string(wpValue(i)) {
			t.Fatalf("key %d unreadable during flush: %q, %v", i, v, hit)
		}
	}
	if got := c.MemObjects(); got < n {
		t.Fatalf("MemObjects = %d during flush, want >= %d (sealed SG counted)", got, n)
	}
	// A Delete racing the flush must shadow the sealed copy (which WILL
	// land on flash) with a tombstone.
	if err := c.Delete(wpKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Get(wpKey(0)); hit {
		t.Fatal("deleted key still hits during flush")
	}
	// An overwrite racing the flush must win over the sealed copy.
	fresh := []byte("wp-fresh-value-padpadpadpad")
	if err := c.Set(wpKey(1), fresh); err != nil {
		t.Fatal(err)
	}
	if v, hit := c.Get(wpKey(1)); !hit || string(v) != string(fresh) {
		t.Fatalf("overwrite lost during flush: %q, %v", v, hit)
	}

	close(release)
	if err := <-flushErr; err != nil {
		t.Fatalf("flush failed: %v", err)
	}
	dev.SetWriteFault(nil)

	// Post-commit: flash serves the survivors, the tombstone still shadows
	// the flushed copy, the overwrite still wins.
	if got := c.PoolLen(); got != 1 {
		t.Fatalf("pool holds %d SGs after flush, want 1", got)
	}
	for i := 2; i < n; i++ {
		v, hit := c.Get(wpKey(i))
		if !hit || string(v) != string(wpValue(i)) {
			t.Fatalf("key %d unreadable after flush: %q, %v", i, v, hit)
		}
	}
	if _, hit := c.Get(wpKey(0)); hit {
		t.Fatal("tombstone did not shadow the flushed copy")
	}
	if v, hit := c.Get(wpKey(1)); !hit || string(v) != string(fresh) {
		t.Fatalf("overwrite lost after flush: %q, %v", v, hit)
	}
}

// memCopies counts the in-memory entries for key — valued ones and
// tombstones — across memq and the sealed SG of an in-flight flush.
func memCopies(c *Cache, key []byte) (valued, tombs int, last []byte) {
	fp := hashing.Fingerprint(key)
	o := c.setOf(fp)
	c.mu.Lock()
	defer c.mu.Unlock()
	sgs := append([]*memSG(nil), c.memq...)
	if c.sealed != nil {
		sgs = append(sgs, c.sealed)
	}
	for _, sg := range sgs {
		sg.rangeSet(o, func(e setblock.Entry) bool {
			switch {
			case e.FP != fp || string(e.Key) != string(key):
			case len(e.Value) == 0:
				tombs++
			default:
				valued++
				last = append([]byte(nil), e.Value...)
			}
			return true
		})
	}
	return valued, tombs, last
}

// TestNoDuplicateCopyAcrossInlineFlush pins memSG's "absent before append"
// invariant where it is hardest to keep: a synchronous SET whose placement
// has to flush the front SG (no in-memory SG has room for the key's set, and
// delayed flushing is off) releases the shard lock for the build, and a
// second SET of the same key lands in that window. When the first SET resumes
// it must find and replace that copy, not append beside it — two copies in
// one block would leave a DELETE removing only the first.
func TestNoDuplicateCopyAcrossInlineFlush(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, device.Geometry{PageSize: 512, PagesPerZone: 16, Zones: 16})
		c := testCacheOn(t, dev, func(cfg *Config) {
			cfg.DelayedFlush = false // a full set flushes the front instead of sacrificing
		})

		// Fill one set offset in every in-memory SG, so the next SET for it
		// must flush from inside placeLocked.
		target := c.setOf(hashing.Fingerprint(wpKey(0)))
		sameSet := func(from int) int {
			for i := from; ; i++ {
				if c.setOf(hashing.Fingerprint(wpKey(i))) == target {
					return i
				}
			}
		}
		hasRoom := func(i int) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, sg := range c.memq {
				if sg.canFit(target, len(wpKey(i)), len(wpValue(i))) {
					return true
				}
			}
			return false
		}
		next := sameSet(0)
		for hasRoom(next) {
			if err := c.Set(wpKey(next), wpValue(next)); err != nil {
				t.Fatal(err)
			}
			next = sameSet(next + 1)
		}
		if got := c.PoolLen(); got != 0 {
			t.Fatalf("prefill flushed %d SGs, want the sets full and nothing flushed", got)
		}
		key := wpKey(next)
		first, second := []byte("first-writer-value-padpad"), []byte("second-writer-value-padpa")

		entered := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		dev.SetWriteFault(func(zone int) error {
			once.Do(func() {
				close(entered)
				<-release
			})
			return nil
		})
		firstErr := make(chan error, 1)
		go func() { firstErr <- c.Set(key, first) }()
		<-entered

		// The first SET is parked mid-build with the lock released; the
		// rotated-in rear has room, so the second SET completes.
		if err := c.Set(key, second); err != nil {
			t.Fatal(err)
		}
		if valued, _, v := memCopies(c, key); valued != 1 || string(v) != string(second) {
			t.Fatalf("during the flush: %d in-memory copies (last %q), want the second writer's one", valued, v)
		}
		close(release)
		if err := <-firstErr; err != nil {
			t.Fatalf("first set: %v", err)
		}
		dev.SetWriteFault(nil)
		if got := c.PoolLen(); got != 1 {
			t.Fatalf("pool holds %d SGs, want the one inline flush", got)
		}

		valued, tombs, v := memCopies(c, key)
		if valued != 1 || tombs != 0 {
			t.Fatalf("%d valued copies and %d tombstones in memory after both sets, want exactly one copy", valued, tombs)
		}
		if string(v) != string(first) && string(v) != string(second) {
			t.Fatalf("surviving copy %q is neither written value", v)
		}
		if got, hit := c.Get(key); !hit || string(got) != string(v) {
			t.Fatalf("get = %q, %v; want the surviving copy %q", got, hit, v)
		}

		if err := c.Delete(key); err != nil {
			t.Fatal(err)
		}
		// A Bloom false positive on the flushed SG may plant a tombstone;
		// what must be gone is every valued copy.
		if valued, _, v := memCopies(c, key); valued != 0 {
			t.Fatalf("%d in-memory copies (last %q) survive the delete", valued, v)
		}
		if got, hit := c.Get(key); hit {
			t.Fatalf("deleted key still hits: %q", got)
		}
	})
}

// TestFlushWriteErrorSurfacesSync pins the failure contract on the
// synchronous path: a device append error fails the Set that triggered the
// flush, increments Stats.WriteErrors immediately, drops the sealed SG's
// objects as evictions, and leaves the cache fully usable.
func TestFlushWriteErrorSurfacesSync(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, device.Geometry{PageSize: 512, PagesPerZone: 16, Zones: 16})
		c := testCacheOn(t, dev, nil)

		boom := errors.New("injected append fault")
		dev.SetWriteFault(func(zone int) error { return boom })
		var setErr error
		for i := 0; i < 2000 && setErr == nil; i++ {
			setErr = c.Set(wpKey(i), wpValue(i))
		}
		if !errors.Is(setErr, boom) {
			t.Fatalf("flush fault never surfaced on Set: %v", setErr)
		}
		st := c.Stats()
		if st.WriteErrors == 0 {
			t.Fatalf("WriteErrors = 0 after failed flush: %+v", st)
		}
		if st.Evictions == 0 {
			t.Fatal("dropped sealed SG's objects were not counted as evictions")
		}
		if got := c.PoolLen(); got != 0 {
			t.Fatalf("failed flush published %d SGs", got)
		}

		// The device recovers; the cache must flush and serve again.
		dev.SetWriteFault(nil)
		for i := 10000; i < 14000; i++ {
			if err := c.Set(wpKey(i), wpValue(i)); err != nil {
				t.Fatalf("post-fault Set: %v", err)
			}
		}
		if c.PoolLen() == 0 {
			t.Fatal("no SG reached flash after the fault cleared")
		}
		hits := 0
		for i := 13000; i < 14000; i++ {
			if v, hit := c.Get(wpKey(i)); hit {
				if string(v) != string(wpValue(i)) {
					t.Fatalf("corrupt value after recovery: %q", v)
				}
				hits++
			}
		}
		if hits == 0 {
			t.Fatal("no hits after recovery")
		}
	})
}

// TestFlushWriteErrorSurfacesAsync pins the async failure contract: a
// deferred flush's device error lands in Stats.WriteErrors as it happens —
// observable before any Drain — and the same error surfaces on Drain.
func TestFlushWriteErrorSurfacesAsync(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, device.Geometry{PageSize: 512, PagesPerZone: 16, Zones: 16})
		c := testShardedOn(t, dev, func(cfg *Config) { cfg.Flushers = 1 }).Shard(0)

		boom := errors.New("injected async append fault")
		failed := make(chan struct{})
		var once sync.Once
		dev.SetWriteFault(func(zone int) error {
			once.Do(func() { close(failed) })
			return boom
		})
		for i := 0; i < 4000; i++ {
			if err := c.SetAsync(wpKey(i), wpValue(i)); err != nil {
				// Backpressure can route a flush inline; that error is the
				// same injected fault and proves the sync surfacing instead.
				if !errors.Is(err, boom) {
					t.Fatalf("unexpected SetAsync error: %v", err)
				}
				break
			}
		}
		<-failed
		// The counter must reflect the failure without waiting for Drain.
		deadline := time.Now().Add(5 * time.Second)
		for c.Stats().WriteErrors == 0 {
			if time.Now().After(deadline) {
				t.Fatal("WriteErrors never incremented after async flush fault")
			}
			time.Sleep(time.Millisecond)
		}
		if err := c.Drain(); err != nil && !errors.Is(err, boom) {
			t.Fatalf("Drain returned a different error: %v", err)
		}

		// Recovery: with the fault cleared the pipeline flushes again.
		dev.SetWriteFault(nil)
		for i := 10000; i < 13000; i++ {
			if err := c.SetAsync(wpKey(i), wpValue(i)); err != nil {
				t.Fatalf("post-fault SetAsync: %v", err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if c.PoolLen() == 0 {
			t.Fatal("no SG reached flash after the async fault cleared")
		}
	})
}

// TestConcurrentWriteProtocolStress races SetAsync/Set/Delete churn —
// constant flushing and eviction through the three-phase protocol —
// against GETs on one shard. Run under -race this is the data-race proof
// of the seal/build/commit windows; the value check proves a hit never
// returns foreign or torn data no matter how the phases interleave.
func TestConcurrentWriteProtocolStress(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 20})
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 2
	cfg.FlushThreshold = 4
	cfg.Flushers = 2
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Shard(0)

	const goroutines = 4
	keys := 600
	opsPer := 8000
	if testing.Short() {
		opsPer = 2000
	}
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 42))
			for op := 0; op < opsPer; op++ {
				i := rng.Intn(keys)
				switch rng.Intn(10) {
				case 0:
					if err := c.Delete(wpKey(i)); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 1, 2, 3:
					if err := c.SetAsync(wpKey(i), wpValue(i)); err != nil {
						errs <- fmt.Errorf("setasync: %w", err)
						return
					}
				case 4:
					if err := c.Set(wpKey(i), wpValue(i)); err != nil {
						errs <- fmt.Errorf("set: %w", err)
						return
					}
				default:
					if v, hit := c.Get(wpKey(i)); hit && string(v) != string(wpValue(i)) {
						errs <- fmt.Errorf("key %d: corrupt hit %q", i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if v, hit := c.Get(wpKey(i)); hit && string(v) != string(wpValue(i)) {
			t.Fatalf("key %d corrupt after drain: %q", i, v)
		}
	}
	if c.Readout().SGsFlushed == 0 {
		t.Fatal("stress run never flushed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSetAllocationsSteadyState pins the write path's allocation budget:
// a steady-state Set — an in-place overwrite that triggers no flush —
// allocates nothing, on both the synchronous and the async entry points.
// (Flush-triggering Sets allocate the fresh rear SG and the new flash-SG
// metadata, amortized over an entire SG of inserts.)
func TestSetAllocationsSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	pin := func(t *testing.T, c *Cache, set func(k, v []byte) error) {
		const n = 16
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := 0; i < n; i++ {
			keys[i], vals[i] = wpKey(i), wpValue(i)
			if err := set(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(300, func() {
			for i := 0; i < n; i++ {
				if err := set(keys[i], vals[i]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if perOp := got / n; perOp > 0 {
			t.Errorf("steady-state Set allocates %.2f times per op, want 0", perOp)
		}
	}
	t.Run("sync", func(t *testing.T) {
		c := testCache(t, nil)
		pin(t, c, c.Set)
	})
	t.Run("async", func(t *testing.T) {
		dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
		c := testShardedOn(t, dev, func(cfg *Config) { cfg.Flushers = 1 }).Shard(0)
		pin(t, c, c.SetAsync)
	})
}
