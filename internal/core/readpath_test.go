package core

// Tests for the concurrent three-phase read path (readpath.go): allocation
// regression pins, device-fault accounting, batched/serial statistical
// parity, the pbfgCache group index, and a race stress of concurrent GETs
// against SET/DELETE/flush on one shard.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/flashsim"
)

// readPathConfig builds a small cache whose index groups actually seal, so
// the PBFG fetch/index-cache path is exercised (property-test geometry).
func readPathConfig(t testing.TB, cachedRatio float64) (*flashsim.Device, *Cache) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
	return dev, readPathCacheOn(t, dev, cachedRatio)
}

// readPathConfigOn is readPathConfig on an arbitrary device backend, for
// the fault tests that must hold on every implementation of the contract.
func readPathConfigOn(t *testing.T, b devtest.Backend, cachedRatio float64) (device.Device, *Cache) {
	t.Helper()
	dev := b.New(t, device.Geometry{PageSize: 512, PagesPerZone: 8, Zones: 16})
	return dev, readPathCacheOn(t, dev, cachedRatio)
}

func readPathCacheOn(t testing.TB, dev device.Device, cachedRatio float64) *Cache {
	t.Helper()
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 2
	cfg.FlushThreshold = 4
	cfg.CachedPBFGRatio = cachedRatio
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rpKey(i int) []byte   { return []byte(fmt.Sprintf("rp-key-%06d-pad", i)) }
func rpValue(i int) []byte { return []byte(fmt.Sprintf("rp-value-%06d-padpadpad", i)) }

// fillReadPath inserts n keys and returns them; enough to seal index groups
// without evicting the oldest SGs.
func fillReadPath(t testing.TB, c *Cache, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = rpKey(i)
		if err := c.Set(keys[i], rpValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestGetAllocationsSteadyState pins the read path's allocation budget:
// one allocation per hit (the returned value copy — in-memory and on-flash
// alike) and zero per clean miss. Everything else the hot path needs
// (probe sets, snapshot arenas, candidate read buffers) lives in the
// cache's sync.Pool scratch.
func TestGetAllocationsSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	_, c := readPathConfig(t, 1.0)
	keys := fillReadPath(t, c, 300)

	// A key the memq no longer holds (keys are inserted once, so an early
	// insert that still hits must be serving from flash). Sacrifice and
	// eviction may have dropped individual early keys; scan for a survivor.
	var flashKey []byte
	for _, k := range keys[:150] {
		if _, hit := c.Get(k); hit {
			flashKey = k
			break
		}
	}
	if flashKey == nil {
		t.Fatal("no early key survived to flash; shrink the fill")
	}
	// A key still buffered in memory: the memq-hit path.
	memKey := keys[len(keys)-1]
	if _, hit := c.Get(memKey); !hit {
		t.Fatal("freshly inserted key missing")
	}
	// A key never inserted: the clean-miss path (Bloom negatives, or at
	// worst a false-positive candidate read into a pooled buffer).
	missKey := []byte("rp-never-set-key-padpad")
	if _, hit := c.Get(missKey); hit {
		t.Skip("improbable: miss key false-hit")
	}

	if got := testing.AllocsPerRun(200, func() { c.Get(flashKey) }); got > 1 {
		t.Errorf("flash hit allocates %.1f times, want ≤ 1 (the value copy)", got)
	}
	if got := testing.AllocsPerRun(200, func() { c.Get(memKey) }); got > 1 {
		t.Errorf("memory hit allocates %.1f times, want ≤ 1 (the value copy)", got)
	}
	if got := testing.AllocsPerRun(200, func() { c.Get(missKey) }); got > 0 {
		t.Errorf("clean miss allocates %.1f times, want 0", got)
	}
}

// TestGetManyMatchesSerialGets pins the batched three-phase lookup against
// the one-key-at-a-time path: on an identical op sequence (including
// sealed groups, index-cache misses, dead-group drops, and within-batch
// PBFG sharing), every counter — cachelib.Stats and the index-cache
// lookup/miss pair — must match the serial execution exactly. The parity
// holds whenever the index cache is not evicting mid-batch (the shipped
// 0.5 cached ratio at production scale); under deliberate capacity
// pressure the batch's page sharing may save refetches the serial path
// repaid, which only lowers read traffic.
func TestGetManyMatchesSerialGets(t *testing.T) {
	_, serial := readPathConfig(t, 1.0)
	_, batched := readPathConfig(t, 1.0)

	const n, rounds, batch = 400, 6, 7
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			k, v := rpKey(i), rpValue(i)
			if err := serial.Set(k, v); err != nil {
				t.Fatal(err)
			}
			if err := batched.Set(k, v); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			var keys [][]byte
			for i := lo; i < hi; i++ {
				keys = append(keys, rpKey(i))
			}
			var serialVals [][]byte
			var serialHits []bool
			for _, k := range keys {
				v, ok := serial.Get(k)
				serialVals, serialHits = append(serialVals, v), append(serialHits, ok)
			}
			vals, hits := batched.GetMany(keys)
			for j := range keys {
				if hits[j] != serialHits[j] || string(vals[j]) != string(serialVals[j]) {
					t.Fatalf("round %d key %q: batched (%q,%v) != serial (%q,%v)",
						r, keys[j], vals[j], hits[j], serialVals[j], serialHits[j])
				}
			}
		}
	}
	if got, want := batched.Stats(), serial.Stats(); got != want {
		t.Fatalf("batched stats diverged:\nbatched: %+v\nserial:  %+v", got, want)
	}
	g, w := batched.Readout(), serial.Readout()
	if g.PBFGLookups != w.PBFGLookups || g.PBFGMisses != w.PBFGMisses {
		t.Fatalf("index-cache traffic diverged: batched %d/%d, serial %d/%d", g.PBFGLookups, g.PBFGMisses, w.PBFGLookups, w.PBFGMisses)
	}
}

// TestGetReadErrorsCounted pins the fix for silently swallowed device read
// errors: a failed GET-path read still degrades to a miss, but every
// failure lands in Stats.ReadErrors — for single Gets and batched GetMany
// alike — and the counter stops moving once the device recovers.
func TestGetReadErrorsCounted(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev, c := readPathConfigOn(t, b, 0.25) // small index cache: PBFG fetches stay live
		keys := fillReadPath(t, c, 300)

		// Early inserts that still hit are serving from flash (each key is set
		// exactly once, so nothing old can sit in the memq).
		var flashKeys [][]byte
		for _, k := range keys[:150] {
			if _, hit := c.Get(k); hit {
				flashKeys = append(flashKeys, k)
			}
			if len(flashKeys) == 64 {
				break
			}
		}
		if len(flashKeys) < 16 {
			t.Fatalf("only %d flash-resident keys survived the fill", len(flashKeys))
		}
		base := c.Stats()
		if base.ReadErrors != 0 {
			t.Fatalf("read errors before faults: %d", base.ReadErrors)
		}

		half := len(flashKeys) / 2
		dev.SetReadFault(func(page int) error { return fmt.Errorf("injected ECC error") })
		for _, k := range flashKeys[:half] {
			if _, hit := c.Get(k); hit {
				t.Fatal("hit despite total read failure")
			}
		}
		vals, hits := c.GetMany(flashKeys[half:])
		for i := range hits {
			if hits[i] || vals[i] != nil {
				t.Fatal("batched hit despite total read failure")
			}
		}
		faulted := c.Stats()
		if faulted.ReadErrors < uint64(len(flashKeys)) {
			t.Fatalf("ReadErrors = %d after %d failed lookups", faulted.ReadErrors, len(flashKeys))
		}

		dev.SetReadFault(nil)
		hitsAfter := 0
		for _, k := range flashKeys {
			if _, hit := c.Get(k); hit {
				hitsAfter++
			}
		}
		if hitsAfter == 0 {
			t.Fatal("cache did not recover after faults cleared")
		}
		if got := c.Stats().ReadErrors; got != faulted.ReadErrors {
			t.Fatalf("ReadErrors moved without faults: %d -> %d", faulted.ReadErrors, got)
		}
	})
}

// TestConcurrentGetStress races optimistic three-phase GETs (single and
// batched) against SET/DELETE/flush churn on one shard. Every Set writes
// the key-deterministic value, so any hit must return exactly that value —
// torn reads of a recycled zone must never surface (the epoch validation's
// whole job). Run under -race this also proves the unlocked phase touches
// only immutable state.
func TestConcurrentGetStress(t *testing.T) {
	_, c := readPathConfig(t, 0.5)
	const keySpace = 500

	var wg sync.WaitGroup
	fail := make(chan string, 16)
	// Writers: continuous Set churn (inline flushes + evictions) plus
	// deletions.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8000; i++ {
				id := (i*7 + w*13) % keySpace
				if err := c.Set(rpKey(id), rpValue(id)); err != nil {
					fail <- fmt.Sprintf("set: %v", err)
					return
				}
				if i%97 == 0 {
					if err := c.Delete(rpKey((id + 1) % keySpace)); err != nil {
						fail <- fmt.Sprintf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: single Gets and batched GetMany over the same key space.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var batch [][]byte
			for i := 0; i < 12000; i++ {
				id := (i*11 + g*29) % keySpace
				if v, hit := c.Get(rpKey(id)); hit && string(v) != string(rpValue(id)) {
					fail <- fmt.Sprintf("corrupt hit for key %d: %q", id, v)
					return
				}
				if i%33 == 0 {
					batch = batch[:0]
					for j := 0; j < 8; j++ {
						batch = append(batch, rpKey((id+j)%keySpace))
					}
					vals, hits := c.GetMany(batch)
					for j := range batch {
						if hits[j] && string(vals[j]) != string(rpValue((id+j)%keySpace)) {
							fail <- fmt.Sprintf("corrupt batched hit for key %d: %q", (id+j)%keySpace, vals[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stress proved nothing: %+v", st)
	}
}

// TestPBFGCacheDropGroupIndexed pins the group-addressed index cache:
// dropGroup(g) releases exactly the retiring group's pages, into the arena of
// its filter width, and takes its queue entries with it, live groups keep
// theirs, and eviction pops the oldest page, resolving its group through the
// group list.
func TestPBFGCacheDropGroupIndexed(t *testing.T) {
	const sets = 100
	sealed := func(id, bits int) *idxGroup {
		return &idxGroup{id: id, sealed: true, bfBits: bits, cached: uncached(sets)}
	}
	groups := []*idxGroup{sealed(0, 64), sealed(1, 128)} // one-member groups: 8- and 16-byte pages
	pc := newPBFGCache(256, 1, 128)
	for _, g := range groups {
		for o := 0; o < sets; o++ {
			pc.put(groups, g, o, []byte{byte(g.id), byte(o)})
		}
	}
	if pc.count != 2*sets || len(pc.queue)-pc.head != 2*sets {
		t.Fatalf("setup: %d pages, %d queue entries", pc.count, len(pc.queue)-pc.head)
	}

	dead := groups[0]
	pc.dropGroup(groups, dead)
	groups = groups[1:]
	if dead.cached != nil {
		t.Fatal("dropGroup kept the slot list")
	}
	if pc.count != sets || len(pc.queue)-pc.head != sets {
		t.Fatalf("after dropGroup: %d pages, %d queue entries, want %d of each", pc.count, len(pc.queue)-pc.head, sets)
	}
	for _, k := range pc.queue[pc.head:] {
		if k.group == 0 {
			t.Fatalf("queue entry (0,%d) outlived its group", k.set)
		}
	}
	if a := pc.arenas[0]; len(a.free) != len(a.slabs)*pageSlabPages {
		t.Fatalf("%d of %d 64-bit arena slots free, want the dead group's %d all returned", len(a.free), len(a.slabs)*pageSlabPages, sets)
	}
	if a := pc.arenas[1]; len(a.free) != len(a.slabs)*pageSlabPages-sets {
		t.Fatalf("%d free 128-bit arena slots, want the live group's %d still held", len(a.free), sets)
	}
	for o := 0; o < sets; o++ {
		page, ok := pc.get(groups[0], o)
		if !ok || page[0] != 1 || page[1] != byte(o) {
			t.Fatalf("live page (1,%d) lost or corrupted by dropGroup: %v", o, page)
		}
	}

	// FIFO eviction pops the oldest page, across groups.
	small := newPBFGCache(2, 1, 64)
	groups = []*idxGroup{sealed(5, 64), sealed(6, 64)}
	small.put(groups, groups[0], 0, []byte{1})
	small.put(groups, groups[0], 1, []byte{2})
	small.put(groups, groups[1], 0, []byte{3})
	if _, ok := small.get(groups[0], 0); ok {
		t.Fatal("FIFO eviction skipped the oldest page")
	}
	if _, ok := small.get(groups[0], 1); !ok {
		t.Fatal("eviction dropped the wrong page")
	}
	if page, ok := small.get(groups[1], 0); !ok || page[0] != 3 {
		t.Fatal("the new page was not cached")
	}
	if want := []pbfgKey{{5, 1}, {6, 0}}; !slices.Equal(small.queue[small.head:], want) {
		t.Fatalf("queue %v, want %v", small.queue[small.head:], want)
	}
}

// TestPBFGCacheShrinksOutOfUseWidth pins the arenas' bound: pages of one
// filter width that age out of the FIFO while pages of another width come in
// leave the first arena with less than two slabs of slots, and a retiring
// group's release moves a live group's pages out of the arena's last slab
// with their bytes intact, so the arena holds no more than two slabs beyond
// its live pages.
func TestPBFGCacheShrinksOutOfUseWidth(t *testing.T) {
	const sets = 96
	sealed := func(id, bits int) *idxGroup {
		return &idxGroup{id: id, sealed: true, bfBits: bits, cached: uncached(sets)}
	}
	page := func(g *idxGroup, o int) []byte {
		return []byte{byte(g.id), byte(o), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	}
	narrow, wide := sealed(0, 64), sealed(1, 128)
	groups := []*idxGroup{narrow, wide}
	pc := newPBFGCache(sets, 1, 128)
	for o := 0; o < sets; o++ {
		pc.put(groups, narrow, o, page(narrow, o))
	}
	for o := 0; o < sets; o++ { // every narrow page ages out
		pc.put(groups, wide, o, page(wide, o))
	}
	if n := len(pc.arenas[0].slabs); n >= 2 {
		t.Fatalf("the 64-bit arena kept %d slabs with no page in it", n)
	}
	for o := 0; o < sets; o++ {
		if got, ok := pc.get(wide, o); !ok || got[0] != 1 || got[1] != byte(o) {
			t.Fatalf("wide page %d lost or corrupted: %v", o, got)
		}
	}

	// Interleave two groups of one width through the slabs, then retire the
	// one whose pages fill the low slots: the survivor's pages in the last
	// slab must move down, bytes and all.
	a, b := sealed(2, 64), sealed(3, 64)
	groups = []*idxGroup{a, b}
	pc = newPBFGCache(2*sets, 1, 64)
	for o := 0; o < sets; o++ {
		pc.put(groups, a, o, page(a, o))
	}
	for o := 0; o < sets; o++ {
		pc.put(groups, b, o, page(b, o))
	}
	pc.dropGroup(groups, a)
	ar := &pc.arenas[0]
	if live := len(ar.slabs)*pageSlabPages - len(ar.free); live != sets || len(ar.free) >= 2*pageSlabPages {
		t.Fatalf("after retiring a group: %d slabs, %d free slots for %d live pages", len(ar.slabs), len(ar.free), sets)
	}
	for o := 0; o < sets; o++ {
		if s := b.cached[o]; int(s) >= len(ar.slabs)*pageSlabPages {
			t.Fatalf("page %d names slot %d past the arena's %d slabs", o, s, len(ar.slabs))
		}
		if got, ok := pc.get(b, o); !ok || got[0] != 3 || got[1] != byte(o) {
			t.Fatalf("surviving page %d lost or corrupted by the move: %v", o, got)
		}
	}
}

// TestGetEpochConflictFallsBack forces the optimistic path to conflict by
// flushing between a planned GET's phases — simulated here by hammering
// Gets from one goroutine while another goroutine flushes the front SG in
// a tight loop. The lookup must stay correct (never corrupt, never stuck).
func TestGetEpochConflictFallsBack(t *testing.T) {
	_, c := readPathConfig(t, 0.5)
	fillReadPath(t, c, 300)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Sets keep rotating SGs through flush + eviction, moving the
			// epoch under in-flight readers.
			id := 1000 + i%300
			if err := c.Set(rpKey(id), rpValue(id)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		id := i % 1300
		if v, hit := c.Get(rpKey(id)); hit && string(v) != string(rpValue(id)) {
			t.Fatalf("corrupt value for key %d under epoch churn: %q", id, v)
		}
	}
	close(stop)
	wg.Wait()
}
