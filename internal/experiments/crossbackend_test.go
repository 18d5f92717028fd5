package experiments

// Cross-backend equivalence: the engines are deterministic functions of the
// trace and the device *geometry* — never of the device *implementation*.
// Replaying the same materialized mixed trace on the simulator and on the
// file-backed device must produce equal quality cells (hit ratio, ALWA, total
// WA, error counts) for every engine driven synchronously. This is the pin
// that lets `-device=file:` results be compared against the simulator
// baselines.

import (
	"math"
	"reflect"
	"testing"

	"nemo/internal/backend"
)

// TestCompareTableIdenticalAcrossBackends replays the full five-engine
// comparison on both backends and requires equal Reports.
func TestCompareTableIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend replay is a long test")
	}
	run := func(spec backend.Spec) Report {
		return compareReport(t, CompareConfig{
			Scale:   "small",
			Shards:  []int{1, 2},
			Ops:     30_000,
			Seed:    7,
			SetFrac: 0.1,
			DelFrac: 0.02,
			Device:  spec,
		})
	}
	sim := run(backend.Sim())
	file := run(backend.File(t.TempDir() + "/nemo.img"))
	if !reflect.DeepEqual(sim, file) {
		t.Fatalf("quality report differs across backends\n--- sim ---\n%s\n--- file ---\n%s", render(sim), render(file))
	}
	if len(sim.Tables) != 2 || len(sim.Tables[0].Rows) != 5 {
		t.Fatalf("want two tables of five engines:\n%s", render(sim))
	}
}

// TestCompareTableIdenticalAcrossBackendsAsync repeats the pin down the
// async flush pipeline (a two-goroutine flusher pool behind SetAsync). The
// baselines set synchronously there and stay equal across backends. Nemo's row does
// not: when the background flusher rotates the queue relative to the
// foreground decides how much delayed flushing sacrifices, so its hit ratio
// and ALWA move with host timing on either backend. What holds for it across
// backends is the contract: the same ops, no read or write errors, and
// quality within the spread flusher timing causes (0.5 pt of hit ratio, 0.15
// of ALWA) — a device implementation leaking into the metrics shows as more.
func TestCompareTableIdenticalAcrossBackendsAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend replay is a long test")
	}
	run := func(spec backend.Spec) Report {
		return compareReport(t, CompareConfig{
			Scale:    "small",
			Shards:   []int{2},
			Ops:      20_000,
			Seed:     11,
			Flushers: 2,
			SetFrac:  0.1,
			DelFrac:  0.02,
			Engines:  []string{"nemo", "log"},
			Device:   spec,
		})
	}
	sim := run(backend.Sim())
	file := run(backend.File(t.TempDir() + "/nemo.img"))
	nemoCell := func(rep Report, col string) float64 {
		c, ok := rep.Lookup(Ref{Table: "shards=2", Row: "Nemo", Col: col})
		if !ok || c.Format == "" {
			t.Fatalf("no numeric Nemo %s cell:\n%s", col, render(rep))
		}
		return c.V
	}
	for _, c := range []struct {
		col string
		tol float64
	}{{"hit%", 0.5}, {"ALWA", 0.15}} {
		sv, fv := nemoCell(sim, c.col), nemoCell(file, c.col)
		if math.Abs(sv-fv) > c.tol {
			t.Errorf("Nemo %s differs across backends by more than %v: sim %v, file %v", c.col, c.tol, sv, fv)
		}
	}
	// Everything but Nemo's row — the title (which carries the op count),
	// the columns and the deterministic engine's row — is equal.
	for _, rep := range []Report{sim, file} {
		if nemoCell(rep, "rderr") != 0 || nemoCell(rep, "wrerr") != 0 {
			t.Errorf("Nemo row reports errors:\n%s", render(rep))
		}
		tb := rep.Tables[0]
		if len(tb.Rows) != 2 || tb.Rows[0].Label != "Nemo" {
			t.Fatalf("want rows Nemo and Log:\n%s", render(rep))
		}
		tb.Rows = tb.Rows[1:]
	}
	if !reflect.DeepEqual(sim, file) {
		t.Errorf("report differs across backends beyond Nemo's row\n--- sim ---\n%s\n--- file ---\n%s", render(sim), render(file))
	}
}
