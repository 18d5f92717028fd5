package core

// The oracle for the bit-sliced PBFG: the per-member loop the group mask
// replaced — skip dead members and empty sets, Bloom-test every other
// member's own filter — kept here as the reference, with each member's filter
// rebuilt from the set page it indexes, so the reference shares neither the
// page layout nor the kernel with the code under test.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nemo/internal/bloom"
	"nemo/internal/flashsim"
	"nemo/internal/hashing"
	"nemo/internal/setblock"
)

// refCandidates returns the ids of the SGs that may hold fp at set offset o,
// newest first: the deleted group walk, one member at a time.
func refCandidates(t *testing.T, c *Cache, fp uint64, o int, minID uint64) []uint64 {
	t.Helper()
	var ids []uint64
	page := make([]byte, c.pageSize)
	blk := setblock.New(c.pageSize)
	for gi := len(c.groups) - 1; gi >= 0; gi-- {
		g := c.groups[gi]
		for s := len(g.members) - 1; s >= 0; s-- {
			m := g.members[s]
			if m.dead || m.id < minID || m.setCount(o) == 0 {
				continue
			}
			if _, err := c.dev.ReadPage(c.dev.PageAddr(m.zone, o), page); err != nil {
				t.Fatal(err)
			}
			if err := blk.DecodeFrom(page); err != nil {
				t.Fatal(err)
			}
			f := bloom.NewBits(g.bfBits, c.bfK)
			blk.Range(func(_ int, e setblock.Entry) bool {
				f.Add(e.FP)
				return true
			})
			if f.Test(fp) {
				ids = append(ids, m.id)
			}
		}
	}
	return ids
}

// walkIDs is the write path's view: walkCandidates over fetchPBFG.
func walkIDs(t *testing.T, c *Cache, fp uint64, o int, minID uint64) []uint64 {
	t.Helper()
	var ids []uint64
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes.Reuse(fp)
	err := c.walkCandidates(o, c.probes, minID, c.fetchPBFG, func(m *flashSG, tested bool) bool {
		if !tested {
			t.Fatalf("fetchPBFG left SG %d untested", m.id)
		}
		ids = append(ids, m.id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// lookupIDs is the read path's view: the candidates a lookup of key reads
// after its plan and — for groups whose page was not cached — its I/O phase
// have tested them. ok is false when the plan resolved the key in memory.
func lookupIDs(c *Cache, key []byte) (ids []uint64, ok bool) {
	sc := c.borrowScratch()
	defer c.returnScratch(sc)
	fp := hashing.Fingerprint(key)
	sc.resetPlan()
	sc.atts = append(sc.atts[:0], getAttempt{fp: fp, o: c.setOf(fp)})
	sc.results = append(sc.results[:0], getIOResult{})
	sc.probes.Reuse(fp)
	c.mu.Lock()
	c.planGetLocked(sc, &sc.atts[0], key, 0)
	c.mu.Unlock()
	if sc.atts[0].resolved {
		return nil, false
	}
	c.getIO(sc, &sc.atts[0], key, 0, &sc.results[0])
	for _, m := range sc.cands {
		ids = append(ids, m.id)
	}
	c.mu.Lock()
	c.publishPendsLocked(sc)
	c.mu.Unlock()
	return ids, true
}

// checkAgainstOracle compares both views with the reference for a sample of
// keys and one key no SG holds.
func checkAgainstOracle(t *testing.T, c *Cache, rng *rand.Rand, keys [][]byte, when string) {
	t.Helper()
	for n := 0; n < 48 && len(keys) > 0; n++ {
		key := keys[rng.Intn(len(keys))]
		if n == 0 {
			key = []byte(fmt.Sprintf("never-set-%d", rng.Int()))
		}
		fp := hashing.Fingerprint(key)
		o := c.setOf(fp)
		minID := uint64(0)
		if len(c.pool) > 0 && rng.Intn(2) == 0 {
			minID = c.pool[rng.Intn(len(c.pool))].id + uint64(rng.Intn(2))
		}
		want := refCandidates(t, c, fp, o, minID)
		if got := walkIDs(t, c, fp, o, minID); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: key %q minID %d: group walk found SGs %v, per-member loop %v", when, key, minID, got, want)
		}
		want = refCandidates(t, c, fp, o, 0)
		if got, ok := lookupIDs(c, key); ok && fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: key %q: lookup read SGs %v, per-member loop %v", when, key, got, want)
		}
	}
}

// parkLastDataAppend parks the next flush on its last set-page append —
// every set's filter is built by then, the last window's pages not yet
// stored — and returns the channels to wait for the park and to end it. The
// write hook runs once per page of a run, before any of it is stored, so
// the setsPerSG-th call is the last data page's, in the flush's last data
// window.
func parkLastDataAppend(dev *flashsim.Device, setsPerSG int) (parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var pages atomic.Int32
	dev.SetWriteFault(func(int) error {
		if int(pages.Add(1)) == setsPerSG {
			close(parked)
			<-release
		}
		return nil
	})
	return parked, release
}

// TestPBFGCandidatesMatchPerMemberLoop drives caches of random geometry
// through flushes of random fill — empty SGs and empty sets included — far
// enough that groups seal and members die, and after every flush compares
// the candidates of both group walks with the per-member reference: over the
// unsealed buffer, over sealed pages a real seal wrote (cached, or fetched
// behind a pend when the index cache is off), with a flush parked mid-build
// so its slot is in flight, and again on a cache restored from a checkpoint.
func TestPBFGCandidatesMatchPerMemberLoop(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		members := []int{1, 2, 3, 4, 7}[rng.Intn(5)]
		ppz := []int{4, 8, 16}[rng.Intn(3)]
		dev := flashsim.New(flashsim.Config{
			PageSize:     []int{512, 1024}[rng.Intn(2)],
			PagesPerZone: ppz,
			Zones:        8 + IndexZonesFor(8, members),
		})
		cfg := DefaultConfig(dev, 8)
		cfg.SGsPerIndexGroup = members
		cfg.BloomFPR = []float64{0.001, 0.05}[rng.Intn(2)]
		cfg.CachedPBFGRatio = []float64{0, 0.5, 1}[rng.Intn(3)]
		cfg.FlushThreshold = 1 << 20 // flushes happen when the test says so
		cfg.SnapshotPath = filepath.Join(t.TempDir(), "oracle.snap")
		cold, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cold.Shard(0)
		when := fmt.Sprintf("trial %d (%d members, %d sets, %d B pages, index cache %.1f)",
			trial, members, ppz, dev.PageSize(), cfg.CachedPBFGRatio)

		var keys [][]byte
		flushRound := func(c *Cache, round int, inFlight bool) {
			for i, n := 0, rng.Intn(3)*rng.Intn(4*ppz); i < n; i++ {
				k := []byte(fmt.Sprintf("oracle-%d-%d-%d", trial, round, i))
				if err := c.Set(k, []byte("oracle-value-padpadpad")); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			if !inFlight {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, c, rng, keys, when)
				return
			}
			parked, release := parkLastDataAppend(dev, c.setsPerSG)
			flushErr := make(chan error, 1)
			go func() { flushErr <- c.Flush() }()
			<-parked
			// The owner has built its filters, but not one bit of them may
			// be where a reader could see it before the commit. A group's
			// first member in flight has no buffer to leak into yet.
			g := c.groups[len(c.groups)-1]
			for o := 0; g.buf != nil && o < c.setsPerSG; o++ {
				col := bloom.ExtractColumn(nil, c.bufPage(g, o), members, len(g.members), g.bfBits/8)
				if !bytes.Equal(col, make([]byte, g.bfBits/8)) {
					t.Fatalf("%s: in-flight slot %d has bits in the group buffer at set %d", when, len(g.members), o)
				}
			}
			checkAgainstOracle(t, c, rng, keys, when+", flush in flight")
			close(release)
			if err := <-flushErr; err != nil {
				t.Fatal(err)
			}
			dev.SetWriteFault(nil)
			checkAgainstOracle(t, c, rng, keys, when+", flush committed")
		}
		rounds := 10 + rng.Intn(8) // the pool holds 8 SGs: members die from round 9 on
		parkAt := rng.Intn(rounds)
		for round := 0; round < rounds; round++ {
			flushRound(c, round, round == parkAt)
		}

		if err := cold.Close(); err != nil { // checkpoints
			t.Fatal(err)
		}
		warm, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if restored, rerr := warm.RestoreOutcome(); !restored {
			t.Fatalf("%s: restore refused: %v", when, rerr)
		}
		checkAgainstOracle(t, warm.Shard(0), rng, keys, when+", restored")
		// The restored buffer takes new columns and seals like a built one.
		for round := rounds; round < rounds+members+1; round++ {
			flushRound(warm.Shard(0), round, false)
		}
	}
}

// TestReadersPlanWhileFlushCommitsColumn runs lookups that Bloom-test the
// unsealed group buffer against a writer whose every flush merges a column
// into it at commit; under -race it proves the buffer is only ever touched
// under the lock, and in any build that no flushed key turns into a miss.
func TestReadersPlanWhileFlushCommitsColumn(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 16 // twice the pool: the group never seals here
	cfg.FlushThreshold = 1 << 20
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perFlush, flushes = 12, 8 // 8 SGs fill the pool without evicting
	key := func(i int) []byte { return []byte(fmt.Sprintf("merge-%04d", i)) }
	var flushed atomic.Int32 // keys [0, flushed) are on flash
	var gets atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				gets.Add(1)
				n := int(flushed.Load())
				i := rng.Intn(n + perFlush)
				if _, hit := c.Get(key(i)); !hit && i < n {
					t.Errorf("key %d was flushed and never evicted, but missed", i)
					return
				}
				if rng.Intn(8) == 0 {
					if err := c.Delete([]byte(fmt.Sprintf("never-set-%d", i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	for f := 0; f < flushes; f++ {
		for i := f * perFlush; i < (f+1)*perFlush; i++ {
			if err := c.Set(key(i), []byte("merge-value-padpadpad")); err != nil {
				t.Fatal(err)
			}
		}
		// Let the readers in between flushes, so every commit has lookups
		// around it however the scheduler treats this goroutine.
		for until := gets.Load() + 200; gets.Load() < until; {
			runtime.Gosched()
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		flushed.Store(int32((f + 1) * perFlush))
	}
	close(done)
	wg.Wait()
	if got := c.PoolLen(); got != flushes {
		t.Fatalf("pool holds %d SGs, want %d", got, flushes)
	}
}

// TestGroupWidthGuard constructs every index-group width the tree uses, the
// widest a row load supports and one past it, on small and large pages, each
// with lightly filled sets and with sets filled to the page, whose filters
// reach the page limit on a wide group — the packing with the least slack,
// where the last rows' loads run into the page tail. Every width up to
// bloom.MaxGroupMembers constructs, seals a group, agrees with the oracle
// and sizes its filters by the width rule; only a group wider than that is
// refused, by an error that names the limit.
func TestGroupWidthGuard(t *testing.T) {
	for _, members := range []int{1, 2, 3, 4, 50, bloom.MaxGroupMembers, bloom.MaxGroupMembers + 1} {
		for _, pageSize := range []int{512, 4096, 8192} {
			for _, perFlush := range []int{6, pageSize / 8} {
				name := fmt.Sprintf("%d members, %d B page, %d keys per flush", members, pageSize, perFlush)
				dev := flashsim.New(flashsim.Config{PageSize: pageSize, PagesPerZone: 4, Zones: 8 + IndexZonesFor(8, members)})
				cfg := DefaultConfig(dev, 8)
				cfg.SGsPerIndexGroup = members
				cfg.FlushThreshold = 1 << 20
				c, err := newBare(cfg)
				switch {
				case members > bloom.MaxGroupMembers:
					if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bloom.MaxGroupMembers)) {
						t.Fatalf("%s: New returned %v, want an error naming the %d-member limit", name, err, bloom.MaxGroupMembers)
					}
					continue
				case err != nil:
					t.Fatalf("%s: %v", name, err)
				}
				rng := rand.New(rand.NewSource(int64(members*pageSize + perFlush)))
				var keys, live [][]byte
				for f := 0; f <= members; f++ { // one flush past the seal
					for i := 0; i < perFlush; i++ {
						keys = append(keys, []byte(fmt.Sprintf("width-%d-%d", f, i)))
						if err := c.Set(keys[len(keys)-1], []byte("v")); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if err := c.Flush(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if f >= members+1-min(members+1, 4) { // the newest SGs are alive
						live = append(live, keys[len(keys)-perFlush:]...)
					}
				}
				if !c.groups[0].sealed {
					t.Fatalf("%s: no group sealed", name)
				}
				checkGroupWidths(t, c, name)
				if w := c.groups[0].bfBits; members >= 50 && perFlush > 6 && w != c.maxBFBits {
					t.Fatalf("%s: full sets gave a wide group %d-bit filters, not the %d-bit page limit", name, w, c.maxBFBits)
				}
				checkAgainstOracle(t, c, rng, keys, name)
				for _, k := range live {
					// Sets filled to the page sacrifice some keys before they
					// are flushed; a key can only be owed a hit without that.
					if _, hit := c.Get(k); !hit && c.Readout().Sacrificed == 0 {
						t.Fatalf("%s: key %q was flushed into a live SG but missed", name, k)
					}
				}
			}
		}
	}
}

// TestGroupFilterWidth holds every index group of a churning two-shard
// cache to the width rule (checkGroupWidths) every thousand operations, with
// deletes, writeback and evictions under way, and again after a checkpoint
// and warm restore; the trace's 512-byte sets hold few enough and varied
// enough objects that the groups take more than one width, all narrower
// than the page limit.
func TestGroupFilterWidth(t *testing.T) {
	dev := flashsim.New(flashsim.Config{
		PageSize:     snapGeometry(snapShards).PageSize,
		PagesPerZone: snapGeometry(snapShards).PagesPerZone,
		Zones:        snapGeometry(snapShards).Zones,
	})
	path := filepath.Join(t.TempDir(), "width.snap")
	cfg := snapConfig(dev, snapShards, 0, path)
	cold, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	widths := map[int]bool{}
	ops := snapTrace(25000)
	for i := 0; i < len(ops); i += 1000 {
		applySnapTrace(t, cold, ops[i:i+1000], false)
		for _, c := range cold.shards {
			checkGroupWidths(t, c, fmt.Sprintf("after %d ops", i+1000))
			for _, g := range c.groups {
				if g.bfBits > 0 {
					widths[g.bfBits] = true
				}
			}
		}
	}
	if len(widths) < 2 || widths[cold.shards[0].maxBFBits] {
		t.Fatalf("the trace gave widths %v: want two or more, below the %d-bit page limit", widths, cold.shards[0].maxBFBits)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	warm, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored, rerr := warm.RestoreOutcome(); !restored {
		t.Fatalf("restore refused: %v", rerr)
	}
	for _, c := range warm.shards {
		checkGroupWidths(t, c, "restored")
	}
	applySnapTrace(t, warm, snapTrace(5000), false)
	for _, c := range warm.shards {
		checkGroupWidths(t, c, "restored, then 5000 ops")
	}
}

// checkGroupWidths holds every group with a member to the width rule: its
// filters are filterBits of its first member's fullest set — a multiple of
// 64 bits, at most the page limit — and an unsealed group's buffer holds
// SetsPerSG pages of that width.
func checkGroupWidths(t *testing.T, c *Cache, when string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.groups {
		if len(g.members) == 0 {
			if g.bfBits != 0 || g.buf != nil {
				t.Fatalf("%s: memberless group %d has %d-bit filters and a %d-byte buffer", when, g.id, g.bfBits, len(g.buf))
			}
			continue
		}
		first, fullest := g.members[0], 0
		for o := 0; o < first.nsets; o++ {
			fullest = max(fullest, first.setCount(o))
		}
		want := min(bloom.SizeBits(fullest, c.cfg.BloomFPR), c.maxBFBits)
		if g.bfBits != want || want%64 != 0 || want*c.cfg.SGsPerIndexGroup > 8*c.pageSize {
			t.Fatalf("%s: group %d has %d-bit filters, want %d (fullest first-member set %d, page limit %d)",
				when, g.id, g.bfBits, want, fullest, c.maxBFBits)
		}
		if !g.sealed && len(g.buf) != c.setsPerSG*g.bfBits/8*c.cfg.SGsPerIndexGroup {
			t.Fatalf("%s: unsealed group %d buffer is %d bytes for %d-bit filters", when, g.id, len(g.buf), g.bfBits)
		}
	}
}
