package core

import (
	"fmt"
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/hashing"
)

// TestDeleteInMemory covers the simple case: no flash copies, deletion
// removes the buffered object outright (no tombstone needed).
func TestDeleteInMemory(t *testing.T) {
	c := testCache(t, nil)
	k, v := kv(1)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Get(k); hit {
		t.Fatal("deleted in-memory object still hits")
	}
	if got := c.Stats().Deletes; got != 1 {
		t.Fatalf("Deletes = %d, want 1", got)
	}
	if n := c.MemObjects(); n != 0 {
		t.Fatalf("%d objects still buffered after pool-empty delete", n)
	}
}

// TestSetRejectsEmptyValue pins the tombstone encoding's precondition:
// zero-length values are reserved for deletion markers, so Set must reject
// them instead of storing an object that every lookup would misread as
// deleted.
func TestSetRejectsEmptyValue(t *testing.T) {
	c := testCache(t, nil)
	if err := c.Set([]byte("empty-value-key0"), nil); err == nil {
		t.Fatal("Set accepted a nil value")
	}
	if err := c.Set([]byte("empty-value-key0"), []byte{}); err == nil {
		t.Fatal("Set accepted a zero-length value")
	}
	if st := c.Stats(); st.Sets != 0 || st.LogicalBytes != 0 {
		t.Fatalf("rejected writes were counted: %+v", st)
	}
}

// TestDeleteShadowsFlashCopy is the tombstone property: once the object has
// been flushed to flash, Delete must still make a subsequent Get miss —
// the zero-length tombstone shadows the older flash copy because lookups
// scan newest-first.
func TestDeleteShadowsFlashCopy(t *testing.T) {
	c := testCache(t, nil)
	var keys [][]byte
	for i := 0; i < 120; i++ {
		k, v := kv(i)
		keys = append(keys, k)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.PoolLen() == 0 {
		t.Fatal("test needs flushed SGs on flash")
	}
	// Find a key that still hits from flash, then delete it.
	var victim []byte
	for _, k := range keys {
		if _, hit := c.Get(k); hit {
			victim = k
			break
		}
	}
	if victim == nil {
		t.Fatal("no cached key survived to delete")
	}
	if err := c.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Get(victim); hit {
		t.Fatal("deleted flash-resident object still hits")
	}
	// Delete-then-set resurrects with the new value.
	if err := c.Set(victim, []byte("resurrected-value-000000000000")); err != nil {
		t.Fatal(err)
	}
	if v, hit := c.Get(victim); !hit || string(v) != "resurrected-value-000000000000" {
		t.Fatalf("resurrected get = %q, %v", v, hit)
	}
}

// TestDeleteSurvivesTombstoneFlush pushes the tombstone itself to flash and
// verifies it keeps shadowing the older on-flash copy.
func TestDeleteSurvivesTombstoneFlush(t *testing.T) {
	c := testCache(t, nil)
	k, v := kv(0)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	// Flush the object out, delete (tombstone), then flush the tombstone.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Get(k); hit {
		t.Fatal("flushed tombstone stopped shadowing the flash copy")
	}
}

// TestDeleteAcrossShards is the cross-shard satellite: deletions routed
// through the sharded facade must produce Get misses for keys on every
// shard, and the summed Deletes counter must match.
func TestDeleteAcrossShards(t *testing.T) {
	_, cfg := shardedGeom(t, 4, 8)
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Insert until every shard owns a few keys.
	perShard := make([]int, 4)
	var keys [][]byte
	for i := 0; len(keys) < 64 || minInt(perShard) < 4; i++ {
		if i > 10_000 {
			t.Fatal("shard routing never covered all shards")
		}
		k := []byte(fmt.Sprintf("xshard-key-%06d", i))
		v := []byte(fmt.Sprintf("xshard-val-%032d", i))
		if err := s.Set(k, v); err != nil {
			t.Fatal(err)
		}
		perShard[s.ShardOf(k)]++
		keys = append(keys, k)
	}
	deleted := 0
	for _, k := range keys {
		if _, hit := s.Get(k); !hit {
			continue // dropped by flush dynamics before we got to it
		}
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		deleted++
		if _, hit := s.Get(k); hit {
			t.Fatalf("key %q (shard %d) still hits after delete", k, s.ShardOf(k))
		}
	}
	if deleted < 32 {
		t.Fatalf("only %d cached keys exercised; trace too small", deleted)
	}
	if got := s.Stats().Deletes; got != uint64(deleted) {
		t.Fatalf("summed Deletes = %d, want %d", got, deleted)
	}
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// TestDeleteAbsentKeySkipsTombstone pins the Bloom gate: deleting keys the
// filters prove absent must not consume SG space, even with a populated
// flash pool.
func TestDeleteAbsentKeySkipsTombstone(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 120; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.PoolLen() == 0 {
		t.Fatal("test needs a populated pool")
	}
	before := c.MemObjects()
	for i := 0; i < 200; i++ {
		if err := c.Delete([]byte(fmt.Sprintf("never-stored-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	after := c.MemObjects()
	// Bloom false positives may admit the odd tombstone; definite absence
	// must cover the overwhelming majority.
	if after-before > 4 {
		t.Fatalf("%d tombstones buffered for never-stored keys", after-before)
	}
	if got := c.Stats().Deletes; got != 200 {
		t.Fatalf("Deletes = %d, want 200", got)
	}
}

// TestTombstoneSurvivesSacrifice is the delayed-flush interaction: the
// sacrifice path must never evict a tombstone early, or the still-cached
// flash copy it shadows would be resurrected. Same-set inserts overflow the
// victim's set in the front SG repeatedly; through every sacrifice the
// deleted key must keep missing.
func TestTombstoneSurvivesSacrifice(t *testing.T) {
	c := testCache(t, nil)
	victim, secret := kv(0)
	if err := c.Set(victim, secret); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Get(victim); !hit {
		t.Fatal("victim not cached on flash")
	}
	if err := c.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// Hammer the victim's set so the front SG sacrifices over and over.
	vo := c.setOf(hashing.Fingerprint(victim))
	filled := 0
	for i := 1; filled < 600; i++ {
		k, v := kv(i)
		if c.setOf(hashing.Fingerprint(k)) != vo {
			continue
		}
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		filled++
		if _, hit := c.Get(victim); hit {
			t.Fatalf("deleted key resurrected after %d same-set inserts", filled)
		}
	}
}

// TestDeleteSuppressesWriteback checks the eviction interaction: a deleted
// (tombstoned) object must not be resurrected by hotness-aware writeback
// when its SG is evicted.
func TestDeleteSuppressesWriteback(t *testing.T) {
	c := testCache(t, nil)
	k, v := kv(0)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Get(k) // mark hot so eviction would consider writing it back
	if err := c.Delete(k); err != nil {
		t.Fatal(err)
	}
	// Churn until the original SG (and the tombstone) are evicted.
	for i := 1; i < 4_000; i++ {
		ck, cv := kv(i)
		if err := c.Set(ck, cv); err != nil {
			t.Fatal(err)
		}
	}
	if v2, hit := c.Get(k); hit && string(v2) == string(v) {
		t.Fatal("deleted object resurrected by writeback")
	}
}

// TestSacrificedOverwriteOutlivesFIFO checks, on one shard and driven
// serially, the reading the consistency window's tombstone fix rests on:
// once an overwrite's newest copy is sacrificed, eviction writeback finds no
// newer copy to shadow the old one, so a hot stale copy is written back and
// outlives its SG's FIFO position.
//
//   - v1 is flushed and read while its SG is in the pool's hot tail
//     (HotTrackTail), which sets its hotness bit;
//   - v2 is set into the front SG and then sacrificed from it by same-set
//     inserts, before any flush;
//   - flushes are driven until v1's SG is evicted.
//
// Today Get then returns v1: writeback re-inserted it, and it is on flash in
// a younger SG. The test pins that behaviour. The tombstone change ROADMAP
// direction 2(a) names — a sacrificed overwrite leaves a tombstone that
// shadows the older copy — must flip the last assertion to a miss.
func TestSacrificedOverwriteOutlivesFIFO(t *testing.T) {
	// A 20-SG pool tracks hotness over its oldest six: v1's SG is read as it
	// enters the tail, which leaves room for the two flushes that take the
	// SGs the same-set inserts packed before v1's SG is evicted into an SG
	// with room in v1's set.
	const dataZones = 20
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: dataZones + IndexZonesFor(dataZones, 4)})
	c := testCacheOn(t, dev, func(cfg *Config) { cfg.DataZones = dataZones })
	k, v1 := kv(0)
	v2 := []byte("v2-the-overwrite-the-sacrifice-drops")
	// A full pool first, so v1's SG reaches the tail a few flushes before
	// its eviction, as in steady state.
	for c.PoolLen() < c.cfg.DataZones {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set(k, v1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	sgID := c.pool[len(c.pool)-1].id
	c.mu.Unlock()
	// inTail reports whether v1's SG is in the hot tail, and evicted whether
	// it has left the pool.
	inTail := func() (tail, evicted bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.pool) == 0 || c.pool[0].id > sgID {
			return false, true
		}
		return int(sgID-c.pool[0].id) < c.hotTail(), false
	}
	for flushes := 0; ; flushes++ {
		tail, evicted := inTail()
		if evicted || flushes > 64 {
			t.Fatalf("v1's SG never entered the hot tail (evicted %v after %d flushes)", evicted, flushes)
		}
		if tail {
			break
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got, hit := c.Get(k); !hit || string(got) != string(v1) {
		t.Fatalf("v1 read back as %q (hit %v)", got, hit)
	}

	// v2 lands in the empty front SG, the oldest entry of its set there;
	// same-set inserts fill that set in both in-memory SGs, and the first
	// sacrifice takes v2.
	if err := c.Set(k, v2); err != nil {
		t.Fatal(err)
	}
	o := c.setOf(hashing.Fingerprint(k))
	flushed := c.Readout().SGsFlushed
	sacrificed := c.Readout().Sacrificed
	for i := 1; ; i++ {
		if valued, _, _ := memCopies(c, k); valued == 0 {
			break
		}
		ck, cv := kv(i)
		if c.setOf(hashing.Fingerprint(ck)) != o {
			continue
		}
		if err := c.Set(ck, cv); err != nil {
			t.Fatal(err)
		}
	}
	if r := c.Readout(); r.SGsFlushed != flushed || r.Sacrificed == sacrificed {
		t.Fatalf("v2 left memory by %d flushes and %d sacrifices, want by sacrifice alone",
			r.SGsFlushed-flushed, r.Sacrificed-sacrificed)
	}
	if got, hit := c.Get(k); !hit || string(got) != string(v1) {
		t.Fatalf("with v2 sacrificed, Get = %q (hit %v), want v1 from flash", got, hit)
	}

	wb := c.Readout().WriteBackObjs
	for flushes := 0; ; flushes++ {
		if _, evicted := inTail(); evicted {
			break
		}
		if flushes > 64 {
			t.Fatal("v1's SG was never evicted")
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Readout().WriteBackObjs == wb {
		t.Fatal("evicting v1's SG wrote nothing back")
	}
	got, hit := c.Get(k)
	if !hit || string(got) != string(v1) {
		t.Fatalf("after v1's SG was evicted, Get = %q (hit %v); today writeback keeps v1", got, hit)
	}
}

// TestShardedCloseClosesEveryShard pins the Close error path: all shards
// must be closed even when earlier ones fail, and the first error returned.
func TestShardedCloseClosesEveryShard(t *testing.T) {
	_, cfg := shardedGeom(t, 4, 8)
	cfg.Flushers = 2
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A few async inserts so the pool has seen traffic before Close.
	for i := 0; i < 64; i++ {
		k, v := kv(i)
		if err := s.SetAsync(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent (the pool must not be stopped twice).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewShardedValidationReleasesShards covers the constructor error path:
// a late shard failure must not leak the earlier shards (observable here as
// a clean second construction on the same device).
func TestNewShardedValidationReleasesShards(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	_, cfg := shardedGeom(t, 4, 8)
	cfg.Device = dev // too few zones: a later shard's range exceeds the device
	if _, err := NewSharded(cfg); err == nil {
		t.Fatal("NewSharded accepted a device with too few zones")
	}
	// The failed construction must leave the device reusable.
	_, good := shardedGeom(t, 1, 8)
	good.Device = dev
	s, err := NewSharded(good)
	if err != nil {
		t.Fatalf("device unusable after failed construction: %v", err)
	}
	s.Close()
}
