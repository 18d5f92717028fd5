package experiments

// The production-scale comparison harness behind `nemobench compare`: one
// materialized mixed GET/SET/DELETE trace replayed through all five cache
// engines, each behind cachelib.ShardedEngine (Nemo's core.Sharded embeds
// it), at each requested shard count. This is the Figure 12/16 comparison
// grown to production shape: the paper compares the engines
// single-threaded; here every engine runs behind the same hash-lane
// partitioning (the cachelib shard plan), over the same
// per-shard zone slicing of equal total capacity, driven by the same
// deterministic parallel replayer. Hit ratio and write amplification are
// therefore apples-to-apples at every shard count — the "compare" rows of
// fidelity_test.go hold shards=2 to shards=1 per engine, with the one
// departure (the hierarchical engines' two-zone HLog floor) stated there.
// It is a quality comparison: nothing here reads a clock.
//
// Determinism: the Report holds only scheduling-independent statistics and
// is equal cell for cell across runs and device backends at Flushers 0
// (pinned by TestCompareDeterminism and crossbackend_test.go). With a
// flusher pool the baselines stay deterministic (they have nothing to
// defer: their SetAsync is a synchronous Set) but Nemo does not, whose
// background flusher timing shifts SG fill rates — the pool's determinism
// tests therefore exclude Nemo.

import (
	"fmt"
	"sort"
	"strings"

	"nemo/internal/backend"
	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/fairywren"
	"nemo/internal/kangaroo"
	"nemo/internal/logcache"
	"nemo/internal/setcache"
	"nemo/internal/trace"
)

// CompareConfig controls a RunCompare run.
type CompareConfig struct {
	// Scale selects the device/workload preset: "small" (CI), "medium"
	// (default), or "large".
	Scale string
	// Shards lists the shard counts to sweep (default 1, 2, 4).
	Shards []int
	// Ops overrides the request count (0 = scale default).
	Ops int
	// Seed makes the generated trace reproducible.
	Seed int64
	// Flushers gives Nemo a background pool of this many flush goroutines;
	// 0 flushes inline. Every write is a SetAsync either way, and the
	// baselines, with nothing to defer, set synchronously.
	Flushers int
	// SetFrac / DelFrac rewrite that fraction of the trace into explicit
	// SET / DELETE operations (nemobench's flag defaults, 0.1/0.02, mirror
	// a production read-heavy mix; 0 and 0 leave the pure-GET trace).
	SetFrac float64
	DelFrac float64
	// Engines filters which engines run (keys: nemo, log, set, kg, fw;
	// nil = all five).
	Engines []string
	// Device selects the backend engines run on (the zero value is the
	// flashsim simulator; backend.File for a file-backed device). The
	// Report is the same on either — the cross-backend equivalence pin.
	Device backend.Spec
}

func (o CompareConfig) withDefaults() CompareConfig {
	if o.Scale == "" {
		o.Scale = "medium"
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4}
	}
	return o
}

// compareGeometryFor is the device preset of one scale. Zones is the total
// cache capacity in zones, held constant across shard counts so the quality
// columns stay comparable; only the partitioning changes.
func compareGeometryFor(scale string) geometry {
	switch scale {
	case "small":
		return geometry{PageSize: 4096, PagesPerZone: 32, Zones: 48, Ops: 100_000}
	case "large":
		return geometry{PageSize: 4096, PagesPerZone: 128, Zones: 96, Ops: 2_000_000}
	default: // medium
		return geometry{PageSize: 4096, PagesPerZone: 64, Zones: 48, Ops: 400_000}
	}
}

// compareEngine is one comparison column: a canonical key, the structural
// minimum per-shard zone budget the design needs to run (hierarchical
// engines need an HLog plus a set tier per shard), the device size it needs
// beyond the data zones (nil = none), and a builder producing the sharded
// engine on the fresh device the harness opened (and closes). Shard counts
// below an engine's minimum yield a "skipped" text row instead of failing
// the sweep.
type compareEngine struct {
	key         string // lowercase selector for the -engines filter
	name        string // the engine's display label (matches Engine.Name())
	minPerShard int
	zones       func(dataZones, shards int) int
	build       func(dev device.Device, o CompareConfig, dataZones, shards int) (cachelib.Engine, error)
}

var compareEngines = []compareEngine{
	{
		key: "nemo", name: "Nemo", minPerShard: 2, zones: core.DeviceZonesFor,
		build: func(dev device.Device, o CompareConfig, dataZones, n int) (cachelib.Engine, error) {
			cfg := core.DefaultConfig(dev, dataZones)
			cfg.Shards = n
			cfg.Flushers = o.Flushers
			return core.NewSharded(cfg)
		},
	},
	{
		key: "log", name: "Log", minPerShard: 2,
		build: func(dev device.Device, _ CompareConfig, _, n int) (cachelib.Engine, error) {
			return logcache.NewSharded(logcache.Config{Device: dev}, n)
		},
	},
	{
		key: "set", name: "Set", minPerShard: 4, // FTL free-zone reserve + 2
		build: func(dev device.Device, _ CompareConfig, _, n int) (cachelib.Engine, error) {
			return setcache.NewSharded(setcache.Config{Device: dev}, n)
		},
	},
	{
		key: "kg", name: "KG", minPerShard: 6,
		build: func(dev device.Device, _ CompareConfig, _, n int) (cachelib.Engine, error) {
			return kangaroo.NewSharded(kangaroo.Config{Device: dev}, n)
		},
	},
	{
		// FairyWREN's folded GC needs real headroom beyond the structural
		// HLog+set-tier minimum: below ~12 zones the tier runs nearly 100%
		// live and reclaim loses ground to its own relocations (the gc
		// progress guard then errors out the run).
		key: "fw", name: "FW", minPerShard: 12,
		build: func(dev device.Device, _ CompareConfig, _, n int) (cachelib.Engine, error) {
			return fairywren.NewSharded(fairywren.Config{Device: dev}, n)
		},
	},
}

// selectEngines resolves the Engines filter against the registry, in
// canonical order.
func selectEngines(keys []string) ([]compareEngine, error) {
	if len(keys) == 0 {
		return compareEngines, nil
	}
	want := map[string]bool{}
	for _, k := range keys {
		want[strings.ToLower(strings.TrimSpace(k))] = true
	}
	var out []compareEngine
	for _, e := range compareEngines {
		if want[e.key] {
			out = append(out, e)
			delete(want, e.key)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for k := range want {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown engines %v (known: nemo, log, set, kg, fw)", unknown)
	}
	return out, nil
}

// CheckEngines reports the keys of an Engines filter that name no engine.
func CheckEngines(keys []string) error {
	_, err := selectEngines(keys)
	return err
}

// compareTrace materializes the comparison workload for a scale: the four
// Table 5 clusters interleaved at ~3× cache capacity, with the configured
// fraction rewritten into explicit SETs and DELETEs.
func compareTrace(o CompareConfig, g geometry) ([]trace.Request, error) {
	if o.Ops <= 0 {
		o.Ops = g.Ops
	}
	stream, err := trace.DefaultInterleaved(g.capacityBytes()*3/4, o.Seed)
	if err != nil {
		return nil, err
	}
	var mixed trace.Stream = stream
	if o.SetFrac > 0 || o.DelFrac > 0 {
		mixed, err = trace.NewMixed(stream, o.SetFrac, o.DelFrac, o.Seed)
		if err != nil {
			return nil, err
		}
	}
	return trace.Materialize(mixed, o.Ops), nil
}

// RunCompare replays one materialized trace through every selected sharded
// engine at every requested shard count and returns the comparison: one
// table per shard count, one row per engine.
func RunCompare(o CompareConfig) (Report, error) {
	o = o.withDefaults()
	g := compareGeometryFor(o.Scale)
	engines, err := selectEngines(o.Engines)
	if err != nil {
		return Report{}, err
	}
	reqs, err := compareTrace(o, g)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Title: fmt.Sprintf("Cross-engine comparison — %d ops (%.0f%% SET, %.0f%% DEL), %d data zones, async=%v",
		len(reqs), o.SetFrac*100, o.DelFrac*100, g.Zones, o.Flushers > 0)}
	for _, n := range o.Shards {
		t := rep.table(fmt.Sprintf("shards=%d", n), "engine", "hit%", "ALWA", "totalWA", "rderr", "wrerr")
		if n < 1 || g.Zones%n != 0 {
			t.row("all", text(fmt.Sprintf("skipped: %d data zones not divisible", g.Zones)))
			continue
		}
		for _, e := range engines {
			if per := g.Zones / n; per < e.minPerShard {
				t.row(e.name, text(fmt.Sprintf("skipped: %d zones/shard < engine minimum %d", per, e.minPerShard)))
				continue
			}
			st, err := o.runOne(g, e, n, reqs)
			if err != nil {
				return rep, fmt.Errorf("%s shards=%d: %w", e.key, n, err)
			}
			t.row(e.name, num("%.2f", (1-st.MissRatio())*100), num("%.3f", st.ALWA()),
				num("%.3f", st.TotalWA()), count(st.ReadErrors), count(st.WriteErrors))
		}
	}
	return rep, nil
}

// runOne builds one sharded engine on a fresh device, replays the shared
// trace and returns the engine's final statistics.
func (o CompareConfig) runOne(g geometry, e compareEngine, n int, reqs []trace.Request) (cachelib.Stats, error) {
	zones := g.Zones
	if e.zones != nil {
		zones = e.zones(g.Zones, n)
	}
	dev, err := o.Device.Open(device.Geometry{PageSize: g.PageSize, PagesPerZone: g.PagesPerZone, Zones: zones})
	if err != nil {
		return cachelib.Stats{}, err
	}
	// Engines never close their device; the harness closes (and, for a
	// file-backed device, removes) it — after the engine is closed, so no
	// I/O outlives its device.
	defer dev.Close()
	eng, err := e.build(dev, o, g.Zones, n)
	if err != nil {
		return cachelib.Stats{}, err
	}
	st, err := cachelib.ParallelReplay(eng, reqs)
	if err != nil {
		eng.Close()
		return cachelib.Stats{}, err
	}
	if err := eng.Close(); err != nil {
		return cachelib.Stats{}, fmt.Errorf("close: %w", err)
	}
	return st, nil
}
