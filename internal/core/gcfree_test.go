package core

// Tests for the GC-free hot path: arena stability under fill→evict→refill
// churn, allocation pins on the remaining mutating entry points (Delete,
// batched SetMany), and a golden pin on the checkpoint bytes of a
// deterministic trace, which no in-memory layout change may move.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"nemo/internal/flashsim"
	"nemo/internal/snapshot"
)

// TestArenaFlatOverChurn is the arena leak test: after the pool reaches
// steady state, further fill→evict→refill cycles must not grow the page
// arena, and the process HeapObjects gauge must stay flat. A slot leaked
// per flush (the premature-recycle bug class immediate recycling invites)
// shows up here as monotonic slab or heap-object growth, a meta kept past
// its group's retirement as an early SG still holding one, a ledger that no
// longer matches what the group members hold, and a queue entry a retiring
// group left behind as a queue longer than the cached pages.
func TestArenaFlatOverChurn(t *testing.T) {
	c := testCache(t, nil)

	const perCycle = 600
	cycle := func(base int) {
		for i := 0; i < perCycle; i++ {
			k, v := kv(base + i)
			if err := c.Set(k, v); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				c.Get(k) // hotness bits + index-cache traffic
			}
		}
	}
	// Warm up until every arena has seen its high-water mark: the 8-zone
	// pool cycles completely several times over.
	for r := 0; r < 4; r++ {
		cycle(r * perCycle)
	}

	pageSlabs := func() (n int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, a := range c.icache.arenas {
			n += len(a.slabs)
		}
		return n
	}
	checkAccounting := func() {
		c.mu.Lock()
		total, free := 0, 0
		for w, a := range c.icache.arenas {
			total += len(a.slabs) * pageSlabPages
			free += len(a.free)
			for _, slab := range a.slabs {
				if want := pageSlabPages * (w + 1) * 8 * c.cfg.SGsPerIndexGroup; len(slab) != want {
					t.Errorf("%d-bit page slab of %d bytes, want %d", 64*(w+1), len(slab), want)
				}
			}
		}
		if free != total-c.icache.count {
			t.Errorf("page arena leak: %d slots allocated, %d live, %d free (want %d)",
				total, c.icache.count, free, total-c.icache.count)
		}
		// The queue holds exactly the cached pages, and names only groups
		// still in the list.
		ic := c.icache
		if n := len(ic.queue) - ic.head; n != ic.count {
			t.Errorf("index-cache queue holds %d entries for %d cached pages", n, ic.count)
		}
		held, slots := 0, 0
		for _, g := range c.groups {
			for _, m := range g.members {
				held += int(unsafe.Sizeof(*m)) + 4*cap(m.meta)
			}
			for _, s := range g.cached {
				if s >= 0 {
					slots++
				}
			}
		}
		if slots != ic.count {
			t.Errorf("groups list %d cached slots, the index cache counts %d", slots, ic.count)
		}
		for _, k := range ic.queue[ic.head:] {
			if groupAt(c.groups, int(k.group)) == nil {
				t.Errorf("queue entry (%d,%d) names retired group", k.group, k.set)
			}
		}
		c.mu.Unlock()
		if r := c.Readout(); r.SGMeta != uint64(held) {
			t.Errorf("ledger SG meta %d bytes, want the held SGs' structs and metas, %d", r.SGMeta, held)
		}
	}

	before := pageSlabs()
	checkAccounting()
	c.mu.Lock()
	early := c.pool[0]
	c.mu.Unlock()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	for r := 4; r < 12; r++ {
		cycle(r * perCycle)
	}

	after := pageSlabs()
	checkAccounting()
	c.mu.Lock()
	if groupAt(c.groups, early.group.id) != nil {
		t.Errorf("SG %d's group %d survived 8 churn cycles", early.id, early.group.id)
	} else if early.meta != nil {
		t.Errorf("SG %d still holds its meta after its group retired", early.id)
	}
	c.mu.Unlock()
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	if before != after {
		t.Errorf("page arena grew under steady-state churn: %d slabs before, %d after", before, after)
	}
	if grow := int64(ms1.HeapObjects) - int64(ms0.HeapObjects); grow > 300 {
		t.Errorf("HeapObjects grew by %d over 8 churn cycles, want ~flat", grow)
	}
}

// TestDeleteAllocationsSteadyState extends the allocation pins to the
// DELETE path: a steady-state delete — Bloom-positive against flash, so it
// re-places a tombstone over its own previous tombstone — allocates
// nothing. (The filter probes, the cached PBFG page, and the tombstone's
// set-block slot all come from per-shard scratch and arenas.)
func TestDeleteAllocationsSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	c := testCache(t, nil)
	for i := 0; i < 300; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	k, _ := kv(7)
	if err := c.Delete(k); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(300, func() {
		if err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("steady-state Delete allocates %.2f times per op, want 0", got)
	}
}

// TestCompactionAllocationsSteadyState extends the allocation pins to the
// in-memory SG log's compaction, which takes its fresh chunks from the
// shared chunk list: testing.AllocsPerRun truncates its per-run mean, so a
// chunk allocated once every few dozen Sets would hide under the Set, SetMany
// and Delete pins. One key is overwritten until the front SG's log has
// compacted twice — the chunk list and both of the log's chunk lists warm —
// and then until it has compacted three times more, and the process's
// Mallocs must not move over that whole second loop.
func TestCompactionAllocationsSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	c := testCache(t, nil)
	k, v := kv(0)
	front := c.memq[0]
	sets := 0
	overwrite := func(compactions int) {
		for n := 0; n < compactions; sets++ {
			if sets == 10_000 {
				t.Fatalf("%d overwrites compacted the log %d times, want %d", sets, n, compactions)
			}
			dead := front.dead
			if err := c.Set(k, v); err != nil {
				t.Fatal(err)
			}
			if front.dead < dead {
				n++
			}
		}
	}
	overwrite(2)
	sets = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	overwrite(3)
	runtime.ReadMemStats(&after)
	if c.memq[0] != front || c.Readout().SGsFlushed != 0 {
		t.Fatal("a flush ran: the overwrites must stay in the front SG")
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocations over %d overwrites and three compactions, want 0", n, sets)
	}
}

// TestSetManyAllocationsSteadyState extends the allocation pins to the
// batched insert path: a steady-state SetMany round (in-place overwrites,
// no flush) allocates nothing per op, same budget as serial Set.
func TestSetManyAllocationsSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	c := testCache(t, nil)
	const n = 16
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i], vals[i] = kv(i)
	}
	if err := c.SetMany(keys, vals); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(300, func() {
		if err := c.SetMany(keys, vals); err != nil {
			t.Fatal(err)
		}
	})
	if perOp := got / n; perOp > 0 {
		t.Errorf("steady-state SetMany allocates %.2f times per op, want 0", perOp)
	}
}

// snapGoldenSHA256 is the SHA-256 of the NEMO1 version-5 checkpoint of the
// deterministic trace below. The snapshot format is a device-state
// description, not an in-memory-layout dump: the map-based layout's image
// was pinned identical through every in-memory layout change since, and
// version 3 carried exactly that image's content minus the fields restore
// computes (every dropped field equalled its computed value on this trace).
//
// Transition record, version 3 (23b86ebe…24aa) to 4, both shards compared
// field by field on this trace. Format: the version word; CONFIG lost its
// objects-per-set slot; each group gained its filter width (192 bits for
// four groups and 128 for one, where every filter was 128 bits before:
// this trace's 512-byte sets hold up to 13 objects). Content: the probe
// positions moved and the widths grew, so every Bloom outcome may differ —
// FalsePositiveReads 93 → 0 and 116 → 8, and with them FlashReadOps,
// FlashBytesRead and the index-cache lookups and misses; a delete's
// may-exist test and writeback's shadow test answered differently for a
// handful of keys, so Hits (+2, +1), Evictions (−3, −2), WriteBackObjs and
// WriteBackBytes (+2 objects a shard), Sacrificed and the sacrifice count
// (−1 on shard 0), hotness bits of five SGs, the fills and set counts of
// four of shard 0's SGs, shard 0's in-memory SGs, both flush logs and the
// index-cache queue order. Zones, free lists, SG ids, group
// membership and every write counter are unchanged.
//
// Transition record, version 4 (83b43f8c…a727) to 5, both images decoded
// and compared field by field on this trace: with the fields version 5
// drops taken out of the version-4 image — the two config ratios, each
// shard's flush log, the dropped-record count (0 on both shards), every SG's
// fill and every buffered SG's writeback object count — the two are equal,
// and version 5's NewObjs (4657 and 4948) is the sum of the NewObjs of
// each shard's version-4 flush log (36 and 38 records, none dropped).
const snapGoldenSHA256 = "eae0730b66e1012dfde125bd2e41132ff3d81bf123130c51e4502aa3441bc512"

// TestSnapshotBytesMatchMapLayout runs a deterministic mixed trace on the
// simulated device — sealed groups, dead SGs, hot bits, cached PBFG pages,
// tombstones all populated — checkpoints, and pins the bytes against the
// recorded golden hash.
func TestSnapshotBytesMatchMapLayout(t *testing.T) {
	dev := flashsim.New(flashsim.Config{
		PageSize:     snapGeometry(snapShards).PageSize,
		PagesPerZone: snapGeometry(snapShards).PagesPerZone,
		Zones:        snapGeometry(snapShards).Zones,
	})
	cache, err := NewSharded(snapConfig(dev, snapShards, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	applySnapTrace(t, cache, snapTrace(25000), false)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := cache.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	// The device Boot stamp is process-unique by design (it is the warm-
	// restart validity anchor, not state). Canonicalize it to zero and
	// re-encode; every other byte of the snapshot must be deterministic.
	f, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Boot = 0
	canon := filepath.Join(dir, "canon")
	if err := snapshot.Save(canon, f); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(canon)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	got := hex.EncodeToString(sum[:])
	if got != snapGoldenSHA256 {
		t.Errorf("checkpoint bytes diverged from the golden:\n got %s\nwant %s", got, snapGoldenSHA256)
	}
}
