package experiments

import (
	"reflect"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/device"
)

// compareReport runs the comparison at a replay worker count (0 = one per
// shard) and returns its Report.
func compareReport(t *testing.T, cfg CompareConfig, workers int) Report {
	t.Helper()
	rep, err := runCompare(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// render prints a report for a failure message.
func render(rep Report) string {
	var b strings.Builder
	rep.Print(&b)
	return b.String()
}

// compareBase is the small deterministic configuration the determinism
// suite perturbs.
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

// rowLabels lists a table's row labels in order.
func rowLabels(t *Table) []string {
	var out []string
	for _, r := range t.Rows {
		out = append(out, r.Label)
	}
	return out
}

// TestCompareAllEngines pins the harness shape: one table per shard count,
// one row per engine in canonical order.
func TestCompareAllEngines(t *testing.T) {
	rep := compareReport(t, compareBase(), 0)
	if len(rep.Tables) != 2 || rep.Tables[0].Name != "shards=1" || rep.Tables[1].Name != "shards=2" {
		t.Fatalf("want tables shards=1 and shards=2:\n%s", render(rep))
	}
	for _, tb := range rep.Tables {
		if got := rowLabels(tb); !reflect.DeepEqual(got, []string{"Nemo", "Log", "Set", "KG", "FW"}) {
			t.Fatalf("table %s has rows %v:\n%s", tb.Name, got, render(rep))
		}
	}
}

// TestCompareDeterminism is the harness's core guarantee: same seed + trace
// ⇒ the same Report, cell for cell, no matter how many replay workers run,
// unbatched, batched, and with a flusher pool. The pool cases cover the
// four baselines (their SetAsync is a deterministic synchronous Set);
// Nemo's background flusher timing is real concurrency and shifts SG fill
// rates, so Nemo with a pool is exact only per run, not across schedules.
func TestCompareDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CompareConfig)
	}{
		{"unbatched", func(c *CompareConfig) {}},
		{"batched", func(c *CompareConfig) { c.Batch = 32 }},
		{"async-baselines", func(c *CompareConfig) {
			c.Flushers = 2
			c.Engines = []string{"log", "set", "kg", "fw"}
		}},
		{"async-batched-baselines", func(c *CompareConfig) {
			c.Flushers = 2
			c.Batch = 16
			c.Engines = []string{"log", "set", "kg", "fw"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := compareBase()
			tc.mutate(&cfg)
			ref, got := compareReport(t, cfg, 1), compareReport(t, cfg, 4)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("report diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", render(ref), render(got))
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
	if _, err := RunCompare(cfg); err == nil {
		t.Fatal("RunCompare accepted an unknown engine key")
	}

	cfg.Engines = []string{"fw", "log"} // any order in, canonical order out
	rep := compareReport(t, cfg, 0)
	if got := rowLabels(rep.Tables[0]); !reflect.DeepEqual(got, []string{"Log", "FW"}) {
		t.Fatalf("filter fw,log ran %v:\n%s", got, render(rep))
	}
}

// TestCompareSkipsUndersizedShards pins the skip rows: shard counts that do
// not divide the zone budget, or leave a shard below an engine's structural
// minimum, yield a text cell instead of failing the sweep.
func TestCompareSkipsUndersizedShards(t *testing.T) {
	cfg := compareBase()
	cfg.Shards = []int{5, 24}
	rep := compareReport(t, cfg, 0)
	if c, _ := rep.Lookup(Ref{Table: "shards=5", Row: "all", Col: "batch"}); c.Text != "skipped: 48 data zones not divisible" {
		t.Fatalf("no divisibility skip for shards=5:\n%s", render(rep))
	}
	// 24 shards → 2 zones per shard: below the hierarchical engines'
	// minimum (HLog + set tier), fine for the flat ones.
	if c, _ := rep.Lookup(Ref{Table: "shards=24", Row: "KG", Col: "batch"}); c.Text != "skipped: 2 zones/shard < engine minimum 6" {
		t.Fatalf("no minimum-size skip for shards=24:\n%s", render(rep))
	}
	if c, ok := rep.Lookup(Ref{Table: "shards=24", Row: "Log", Col: "hit%"}); !ok || c.Format == "" {
		t.Fatalf("flat engines should still run at 2 zones/shard:\n%s", render(rep))
	}
}

// TestCompareShowsBaselineReadErrors arms a read FaultPlan on the device the
// Log baseline is built on — by wrapping the engine's builder, so no flag or
// option exists for it — and checks the compare report says so: the rderr
// cell of a baseline is a live counter, not a constant 0. (The log cache
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
	rep := compareReport(t, compareBase(), 0)
	for _, table := range []string{"shards=1", "shards=2"} {
		if c, ok := rep.Lookup(Ref{Table: table, Row: "Log", Col: "rderr"}); !ok || c.V == 0 {
			t.Fatalf("%s: rderr reads %v under a 5%% read fault:\n%s", table, c, render(rep))
		}
	}
}

// TestComparePureGetTrace pins that a zero SET/DELETE mix (`-setfrac 0
// -delfrac 0`) reaches the trace: the run issues no DELETE, and its tables
// are not the default-mix ones. Zero used to be read as "unset" and turned
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
	mixed := compareReport(t, cfg, 0)
	if built.Stats().Deletes == 0 {
		t.Fatalf("default-mix run issued no DELETE:\n%s", render(mixed))
	}
	cfg.SetFrac, cfg.DelFrac = 0, 0
	pure := compareReport(t, cfg, 0)
	if d := built.Stats().Deletes; d != 0 {
		t.Fatalf("pure-GET run issued %d DELETEs:\n%s", d, render(pure))
	}
	// The title names the mix; the rows below it must differ too.
	if !strings.Contains(pure.Title, "(0% SET, 0% DEL)") || reflect.DeepEqual(pure.Tables, mixed.Tables) {
		t.Fatalf("pure-GET rows are the default-mix rows:\n%s", render(pure))
	}
}
