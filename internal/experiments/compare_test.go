package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/device"
)

// compareTable runs RunCompare into a buffer and returns the emitted table.
func compareTable(t *testing.T, cfg CompareConfig) string {
	t.Helper()
	var buf bytes.Buffer
	cfg.Out = &buf
	if err := RunCompare(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// compareBase is the small deterministic configuration the determinism
// suite perturbs: wall-clock columns off, so the table contains only
// scheduling-independent statistics.
func compareBase() CompareConfig {
	return CompareConfig{
		Scale:   "small",
		Shards:  []int{1, 2},
		Ops:     12_000,
		Seed:    3,
		SetFrac: 0.1,
		DelFrac: 0.02,
	}
}

// TestCompareAllEngines pins the harness shape: every engine label appears
// in the default table, once per shard count.
func TestCompareAllEngines(t *testing.T) {
	out := compareTable(t, compareBase())
	for _, label := range []string{"Nemo", "Log", "Set", "KG", "FW"} {
		if got := strings.Count(out, "\n"+label+" "); got != 2 {
			t.Fatalf("engine %s has %d rows, want one per shard count (2):\n%s", label, got, out)
		}
	}
}

// TestCompareDeterminism is the harness's core guarantee: same seed + trace
// ⇒ byte-identical comparison table no matter how many replay workers run
// or whether the engines replay concurrently, on the unbatched, batched,
// and async paths. The async case covers the four baselines (their SetAsync
// degrades to a deterministic synchronous Set); Nemo's background flusher
// timing is real concurrency and shifts SG fill rates, so async Nemo is
// exact only per run, not across schedules.
func TestCompareDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CompareConfig)
	}{
		{"unbatched", func(c *CompareConfig) {}},
		{"batched", func(c *CompareConfig) { c.Batch = 32 }},
		{"batched-parallel-engines", func(c *CompareConfig) { c.Batch = 32; c.Parallel = true }},
		{"async-baselines", func(c *CompareConfig) {
			c.Async = true
			c.Engines = []string{"log", "set", "kg", "fw"}
		}},
		{"async-batched-baselines", func(c *CompareConfig) {
			c.Async = true
			c.Batch = 16
			c.Engines = []string{"log", "set", "kg", "fw"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(workers int, parallelFlip bool) string {
				cfg := compareBase()
				tc.mutate(&cfg)
				cfg.Workers = workers
				if parallelFlip {
					cfg.Parallel = !cfg.Parallel
				}
				return compareTable(t, cfg)
			}
			ref := mk(1, false)
			if got := mk(4, false); got != ref {
				t.Fatalf("table diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", ref, got)
			}
			// The engine-level parallelism flip is a third full sweep; one
			// batched case covers it (the flag only changes scheduling).
			if tc.name == "batched" {
				if got := mk(2, true); got != ref {
					t.Fatalf("table diverged when flipping engine-level parallelism:\nref:\n%s\nflipped:\n%s", ref, got)
				}
			}
		})
	}
}

// TestCompareEngineFilter pins the -engines filter: unknown keys fail, a
// subset runs only that subset, in canonical order.
func TestCompareEngineFilter(t *testing.T) {
	cfg := compareBase()
	cfg.Shards = []int{1}
	cfg.Engines = []string{"bogus"}
	cfg.Out = &bytes.Buffer{}
	if err := RunCompare(cfg); err == nil {
		t.Fatal("RunCompare accepted an unknown engine key")
	}

	cfg = compareBase()
	cfg.Shards = []int{1}
	cfg.Engines = []string{"fw", "log"} // any order in, canonical order out
	out := compareTable(t, cfg)
	logAt := strings.Index(out, "\nLog ")
	fwAt := strings.Index(out, "\nFW ")
	if logAt < 0 || fwAt < 0 || strings.Contains(out, "\nNemo ") || strings.Contains(out, "\nSet ") || strings.Contains(out, "\nKG ") {
		t.Fatalf("filter leaked engines:\n%s", out)
	}
	if logAt > fwAt {
		t.Fatalf("rows not in canonical engine order:\n%s", out)
	}
}

// TestCompareSkipsUndersizedShards pins the deterministic skip rows: shard
// counts that do not divide the zone budget, or leave a shard below an
// engine's structural minimum, print a skip instead of failing the sweep.
func TestCompareSkipsUndersizedShards(t *testing.T) {
	cfg := compareBase()
	cfg.Shards = []int{5, 24}
	out := compareTable(t, cfg)
	if !strings.Contains(out, "skipped: 48 data zones not divisible") {
		t.Fatalf("no divisibility skip for shards=5:\n%s", out)
	}
	// 24 shards → 2 zones per shard: below the hierarchical engines'
	// minimum (HLog + set tier), fine for the flat ones.
	if !strings.Contains(out, "skipped: 2 zones/shard < engine minimum") {
		t.Fatalf("no minimum-size skip for shards=24:\n%s", out)
	}
	if !strings.Contains(out, "\nLog ") {
		t.Fatalf("flat engines should still run at 2 zones/shard:\n%s", out)
	}
}

// TestCompareShowsBaselineReadErrors arms a read FaultPlan on the device the
// Log baseline is built on — by wrapping the engine's builder, so no flag or
// option exists for it — and checks the compare table says so: the rderr
// column of a baseline is a live counter, not a constant 0. (The log cache
// is the baseline whose write path never reads, so the run itself survives.)
func TestCompareShowsBaselineReadErrors(t *testing.T) {
	saved := compareEngines
	defer func() { compareEngines = saved }()
	logEngine := saved[1]
	faulty := logEngine
	faulty.build = func(dev device.Device, o CompareConfig, dataZones, n int) (cachelib.Engine, error) {
		device.NewFaultPlan(1, device.FaultRule{Op: device.FaultRead, ErrRate: 0.05}).Arm(dev)
		return logEngine.build(dev, o, dataZones, n)
	}
	compareEngines = []compareEngine{faulty}
	out := compareTable(t, compareBase())
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 8 || f[0] != "Log" {
			continue
		}
		rows++
		if rderr, err := strconv.Atoi(f[6]); err != nil || rderr == 0 {
			t.Fatalf("rderr column reads %q under a 5%% read fault:\n%s", f[6], out)
		}
	}
	if rows != 2 {
		t.Fatalf("want one Log row per shard count:\n%s", out)
	}
}

// TestComparePureGetTrace pins that a zero SET/DELETE mix (`-setfrac 0
// -delfrac 0`) reaches the trace: the run issues no DELETE, and its table
// is not the default-mix one. Zero used to be read as "unset" and turned
// back into 10%/2%.
func TestComparePureGetTrace(t *testing.T) {
	saved := compareEngines
	defer func() { compareEngines = saved }()
	nemo := saved[0]
	var built cachelib.Engine
	spy := nemo
	spy.build = func(dev device.Device, o CompareConfig, dataZones, n int) (cachelib.Engine, error) {
		eng, err := nemo.build(dev, o, dataZones, n)
		built = eng
		return eng, err
	}
	compareEngines = []compareEngine{spy}

	cfg := compareBase()
	cfg.Shards = []int{1}
	mixed := compareTable(t, cfg)
	if built.Stats().Deletes == 0 {
		t.Fatalf("default-mix run issued no DELETE:\n%s", mixed)
	}
	cfg.SetFrac, cfg.DelFrac = 0, 0
	pure := compareTable(t, cfg)
	if d := built.Stats().Deletes; d != 0 {
		t.Fatalf("pure-GET run issued %d DELETEs:\n%s", d, pure)
	}
	// The title line names the mix; the rows below it must differ too.
	rows := func(table string) string { return table[strings.Index(table, "\n"):] }
	if !strings.Contains(pure, "(0% SET, 0% DEL)") || rows(pure) == rows(mixed) {
		t.Fatalf("pure-GET rows are the default-mix rows:\n%s", pure)
	}
}
