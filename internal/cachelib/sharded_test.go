package cachelib

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// shardFake is a minimal in-memory Engine for facade tests. It counts ops
// like a real engine and can be armed to fail Sets of specific keys.
type shardFake struct {
	PerKey
	name string

	mu      sync.Mutex
	store   map[string][]byte
	applied []string // keys of successful Sets, in order
	failing map[string]bool
	closed  bool
	stats   Stats
}

func newShardFake(name string) *shardFake {
	f := &shardFake{name: name, store: map[string][]byte{}, failing: map[string]bool{}}
	f.PerKey = PerKeyOver(f)
	return f
}

func (f *shardFake) Name() string { return f.name }

func (f *shardFake) Get(key []byte) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Gets++
	v, ok := f.store[string(key)]
	if !ok {
		return nil, false
	}
	f.stats.Hits++
	return append([]byte(nil), v...), true
}

func (f *shardFake) Set(key, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing[string(key)] {
		return fmt.Errorf("fake: set %q refused", key)
	}
	f.store[string(key)] = append([]byte(nil), value...)
	f.applied = append(f.applied, string(key))
	f.stats.Sets++
	f.stats.LogicalBytes += uint64(len(key) + len(value))
	return nil
}

func (f *shardFake) Delete(key []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.store, string(key))
	f.stats.Deletes++
	return nil
}

func (f *shardFake) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *shardFake) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// buildSharded wraps n fresh fakes and returns both views.
func buildSharded(t *testing.T, n int) (*ShardedEngine, []*shardFake) {
	t.Helper()
	fakes := make([]*shardFake, n)
	engines := make([]Engine, n)
	for i := range fakes {
		fakes[i] = newShardFake("Fake")
		engines[i] = fakes[i]
	}
	s, err := NewShardedEngine(engines)
	if err != nil {
		t.Fatal(err)
	}
	return s, fakes
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("sharded-key-%06d", i))
	}
	return keys
}

// TestShardedEngineRouting pins that single-key ops land on the shard
// ShardOf reports, that the same lane as core routing is used (even spread),
// and that Stats sums per-shard counters.
func TestShardedEngineRouting(t *testing.T) {
	s, fakes := buildSharded(t, 4)
	keys := testKeys(4000)
	for _, k := range keys {
		if err := s.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, hit := s.Get(k); !hit || string(v) != string(k) {
			t.Fatalf("key %s: hit=%v v=%q", k, hit, v)
		}
	}
	var sum Stats
	for i, f := range fakes {
		st := f.Stats()
		if st.Sets == 0 {
			t.Fatalf("shard %d received no writes: routing is degenerate", i)
		}
		want := uint64(0)
		for _, k := range f.applied {
			if got := s.ShardOf([]byte(k)); got != i {
				t.Fatalf("key %q applied on shard %d but ShardOf says %d", k, i, got)
			}
			want++
		}
		if st.Sets != want {
			t.Fatalf("shard %d: %d sets, %d applied", i, st.Sets, want)
		}
		sum = sum.Add(st)
	}
	if got := s.Stats(); got != sum {
		t.Fatalf("facade stats %+v != per-shard sum %+v", got, sum)
	}
	if got, want := s.Stats().Gets, uint64(len(keys)); got != want {
		t.Fatalf("Gets = %d, want %d", got, want)
	}
}

// TestShardedEngineBatchScatter pins the batched fan-out: GetMany after
// SetMany returns every value at the caller's original batch position, with
// misses interleaved, at several shard counts (including the single-shard
// fast path).
func TestShardedEngineBatchScatter(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s, _ := buildSharded(t, n)
			keys := testKeys(257) // odd size: exercises partial sub-batches
			vals := make([][]byte, len(keys))
			for i := range vals {
				vals[i] = []byte(fmt.Sprintf("val-%06d", i))
			}
			if err := s.SetMany(keys, vals); err != nil {
				t.Fatal(err)
			}
			// Probe with known keys at even positions, misses at odd ones.
			probe := make([][]byte, 2*len(keys))
			for i := range keys {
				probe[2*i] = keys[i]
				probe[2*i+1] = []byte(fmt.Sprintf("missing-%06d", i))
			}
			got, hits := s.GetMany(probe)
			for i := range keys {
				if !hits[2*i] || string(got[2*i]) != string(vals[i]) {
					t.Fatalf("pos %d: hit=%v v=%q want %q", 2*i, hits[2*i], got[2*i], vals[i])
				}
				if hits[2*i+1] || got[2*i+1] != nil {
					t.Fatalf("pos %d: phantom hit %q", 2*i+1, got[2*i+1])
				}
			}
		})
	}
}

// TestShardedEngineSetManyErrors pins the SetMany contract on the facade: a
// batch is its Sets in batch order, whatever shards they route to. Every key
// before the first failing one is applied, no later key is applied on any
// shard, and the error is the failing key's — also when a later key on a
// lower-numbered shard would fail too.
func TestShardedEngineSetManyErrors(t *testing.T) {
	s, fakes := buildSharded(t, 4)
	keys := testKeys(64)
	vals := keys

	// The failing key f sits mid-batch on a shard other than 0; g, later in
	// the batch on shard 0, would fail as well.
	f, g := -1, -1
	for i := 32; i < len(keys); i++ {
		if sh := s.ShardOf(keys[i]); f < 0 && sh != 0 {
			f = i
		} else if f >= 0 && sh == 0 {
			g = i
			break
		}
	}
	if f < 0 || g < 0 {
		t.Fatal("test keys do not put a shard-0 key after a key of another shard")
	}
	fakes[s.ShardOf(keys[f])].failing[string(keys[f])] = true
	fakes[0].failing[string(keys[g])] = true

	err := s.SetMany(keys, vals)
	if want := fmt.Sprintf("fake: set %q refused", keys[f]); err == nil || err.Error() != want {
		t.Fatalf("error = %v, want key %d's (%s)", err, f, want)
	}
	want := make([][]string, len(fakes))
	for _, k := range keys[:f] {
		sh := s.ShardOf(k)
		want[sh] = append(want[sh], string(k))
	}
	for sh, fk := range fakes {
		if fmt.Sprint(fk.applied) != fmt.Sprint(want[sh]) {
			t.Fatalf("shard %d applied %v, want the keys before %d: %v", sh, fk.applied, f, want[sh])
		}
	}
}

// TestShardedEngineCloseAll pins that Close reaches every shard.
func TestShardedEngineCloseAll(t *testing.T) {
	s, fakes := buildSharded(t, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if !f.closed {
			t.Fatalf("shard %d not closed", i)
		}
	}
}

// TestShardedEngineSingleShardIdentity pins the shards=1 degenerate case on
// the generic facade itself: same ops, same stats as the bare fake.
func TestShardedEngineSingleShardIdentity(t *testing.T) {
	bare := newShardFake("Fake")
	s, _ := buildSharded(t, 1)
	keys := testKeys(300)
	for i, k := range keys {
		if i%3 == 0 {
			bare.Set(k, k)
			s.Set(k, k)
		}
		bare.Get(k)
		s.Get(k)
	}
	if got, want := s.Stats(), bare.Stats(); got != want {
		t.Fatalf("stats diverged:\nwrapped: %+v\nbare:    %+v", got, want)
	}
	if s.ShardOf(keys[0]) != 0 || s.NumShards() != 1 {
		t.Fatal("single-shard routing must be the trivial partition")
	}
}

// zoneCount is a device of n zones, all NewShardedRange asks of one.
type zoneCount int

func (z zoneCount) Zones() int { return int(z) }

// TestNewShardedRangeShardCount pins the shard-count contract: 0 builds one
// shard over the whole range, and a negative count is refused, under the
// engine's error prefix, before any shard is built.
func TestNewShardedRangeShardCount(t *testing.T) {
	var built []int
	build := func(zoneBase, zones int) (Engine, error) {
		built = append(built, zones)
		return newShardFake("Fake"), nil
	}
	s, err := NewShardedRange("fakecache", zoneCount(12), 0, 0, 0, build)
	if err != nil || s.NumShards() != 1 || len(built) != 1 || built[0] != 12 {
		t.Fatalf("shards 0: err %v, built %v", err, built)
	}
	built = nil
	_, err = NewShardedRange("fakecache", zoneCount(12), 0, 0, -2, build)
	if err == nil || !strings.HasPrefix(err.Error(), "fakecache: ") || !strings.Contains(err.Error(), "-2") || len(built) != 0 {
		t.Fatalf("shards -2: err %v, built %v; want a fakecache error and no shard", err, built)
	}
}
