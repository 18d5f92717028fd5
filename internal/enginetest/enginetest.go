// Package enginetest holds the cross-engine equivalence suite every sharded
// baseline is pinned by: wrapping an engine in the generic sharded facade
// with a single shard must not change a single statistic, and multi-shard
// wrapping must partition traffic without losing a request. It mirrors the
// core package's shards=1 equivalence pin (TestShardedSingleShardEquivalence
// in internal/core) for engines wrapped by cachelib.ShardedEngine, so every
// baseline earns the same guarantee Nemo's native facade has.
package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/trace"
)

// MixedTrace materializes the deterministic mixed GET/SET/DELETE trace the
// equivalence suites replay (10% explicit SETs, 2% DELETEs over a Zipf-1.2
// key space, sized to cycle small test devices several times).
func MixedTrace(ops int) []trace.Request {
	z := trace.NewZipf(trace.ClusterConfig{
		Name: "equiv", KeySize: 20, ValueMean: 64, ValueStd: 24,
		Keys: 4096, ZipfAlpha: 1.2, Seed: 7,
	})
	m, err := trace.NewMixed(z, 0.10, 0.02, 7)
	if err != nil {
		panic(err)
	}
	return trace.Materialize(m, ops)
}

// replay drives one engine through the standard parallel replayer and
// returns its final stats.
func replay(t *testing.T, e cachelib.Engine, reqs []trace.Request) cachelib.Stats {
	t.Helper()
	st, err := cachelib.ParallelReplay(e, reqs)
	if err != nil {
		t.Fatalf("%s: replay: %v", e.Name(), err)
	}
	return st
}

// SingleShardEquivalence pins the facade contract for one engine family:
// the shards=1 wrapped engine must reproduce the bare engine's replay
// statistics stat-for-stat on the same trace, one engine call per request.
// mkBare and mkSharded must build engines of identical configuration on
// fresh devices. (The batched calls' equivalence to per-key calls is the
// Conformance table's "batch" case.)
func SingleShardEquivalence(t *testing.T, ops int,
	mkBare func(t *testing.T) cachelib.Engine,
	mkSharded func(t *testing.T, shards int) cachelib.Engine) {
	t.Helper()
	reqs := MixedTrace(ops)
	t.Run("unbatched", func(t *testing.T) {
		bare := mkBare(t)
		defer bare.Close()
		wrapped := mkSharded(t, 1)
		defer wrapped.Close()
		want := replay(t, bare, reqs)
		got := replay(t, wrapped, reqs)
		if got != want {
			t.Fatalf("shards=1 stats diverged from bare engine:\nwrapped: %+v\nbare:    %+v", got, want)
		}
	})
}

// MultiShardPartition checks the facade's aggregate accounting at a real
// shard count: every request is counted exactly once, per-shard counters
// sum to the facade's totals, and every shard receives traffic.
func MultiShardPartition(t *testing.T, ops, shards int,
	mkSharded func(t *testing.T, shards int) cachelib.Engine) {
	t.Helper()
	reqs := MixedTrace(ops)
	e := mkSharded(t, shards)
	defer e.Close()
	st := replay(t, e, reqs)
	if st.Gets+st.Sets+st.Deletes < uint64(len(reqs)) {
		t.Fatalf("ops lost: %d gets + %d sets + %d deletes < %d requests",
			st.Gets, st.Sets, st.Deletes, len(reqs))
	}
	se, ok := e.(*cachelib.ShardedEngine)
	if !ok {
		t.Fatalf("mkSharded returned %T, want *cachelib.ShardedEngine", e)
	}
	var sum cachelib.Stats
	for i := 0; i < se.NumShards(); i++ {
		ss := se.Shard(i).Stats()
		if ss.Gets == 0 {
			t.Fatalf("shard %d received no GET traffic", i)
		}
		sum = sum.Add(ss)
	}
	if sum != st {
		t.Fatalf("per-shard stats sum %+v != facade stats %+v", sum, st)
	}
}

// GoldenStats pins one baseline's replay statistics to constants recorded
// before its set tier and log front were shared between engines:
// MixedTrace(ops) replayed against the bare engine and the two-shard
// facade. want maps "bare/unbatched" and "sharded2/unbatched" to the
// rendered final cachelib.Stats; for the bare engine the read-latency
// summary follows, and extra (nil for none) appends the engine's own
// counters — migration instrumentation, FTL write amplification — which no
// facade exposes. The shards=1 pins compare an engine with itself; this
// compares it with its past, so a changed constant is a changed engine.
func GoldenStats(t *testing.T, ops int, want map[string]string,
	mkBare func(t *testing.T) cachelib.Engine,
	mkSharded func(t *testing.T, shards int) cachelib.Engine,
	extra func(bare cachelib.Engine) string) {
	t.Helper()
	reqs := MixedTrace(ops)
	check := func(name string, e cachelib.Engine, bare bool) {
		name += "/unbatched"
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			got := renderStats(replay(t, e, reqs))
			if bare {
				// One goroutine, one device clock: the virtual read
				// latencies are deterministic too.
				l := e.ReadLatency().Snapshot()
				got += fmt.Sprintf(" lat=%d/%v/%v", l.Count, l.Mean, l.Pmax)
				if extra != nil {
					got += " " + extra(e)
				}
			}
			if got != want[name] {
				t.Fatalf("replay statistics moved:\n got: %q\nwant: %q", got, want[name])
			}
		})
	}
	check("bare", mkBare(t), true)
	check("sharded2", mkSharded(t, 2), false)
}

// renderStats prints the non-zero counters of s as name=value pairs, each
// name without the engine_ prefix the stats verb serves, as GoldenStats
// spells them.
func renderStats(s cachelib.Stats) string {
	var b strings.Builder
	for _, f := range s.Fields() {
		if f.Value != 0 {
			fmt.Fprintf(&b, "%s=%d ", strings.TrimPrefix(f.Name, "engine_"), f.Value)
		}
	}
	return strings.TrimSpace(b.String())
}
