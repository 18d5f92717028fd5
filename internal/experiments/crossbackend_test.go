package experiments

// Cross-backend equivalence: the engines are deterministic functions of the
// trace and the device *geometry* — never of the device *implementation*.
// Replaying the same materialized mixed trace on the simulator and on the
// file-backed device must produce byte-identical quality metrics (hit ratio,
// ALWA, total WA, evictions) for every engine driven synchronously. This is the pin that lets
// `-device=file:` results be compared against the simulator baselines: only
// the timing columns may differ.

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"nemo/internal/backend"
)

// runCompareTable renders the -notime compare table for one backend.
func runCompareTable(t *testing.T, spec backend.Spec) string {
	t.Helper()
	var buf bytes.Buffer
	err := RunCompare(CompareConfig{
		Scale:    "small",
		Shards:   []int{1, 2},
		Ops:      30_000,
		Seed:     7,
		SetFrac:  0.1,
		DelFrac:  0.02,
		HostTime: false, // quality columns only: the deterministic table
		Device:   spec,
		Out:      &buf,
	})
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	return buf.String()
}

// TestCompareTableIdenticalAcrossBackends replays the full five-engine
// comparison on both backends and requires byte-identical -notime tables.
func TestCompareTableIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend replay is a long test")
	}
	sim := runCompareTable(t, backend.Sim())
	file := runCompareTable(t, backend.File(t.TempDir()+"/nemo.img"))
	if sim != file {
		t.Fatalf("quality table differs across backends\n--- sim ---\n%s\n--- file ---\n%s", sim, file)
	}
	if sim == "" {
		t.Fatal("empty compare table")
	}
}

// TestCompareTableIdenticalAcrossBackendsAsync repeats the pin down the
// async flush pipeline (SetAsync + flusher pool). The baselines degrade to
// synchronous Sets there and stay byte-identical across backends. Nemo's row
// does not: when the background flusher rotates the queue relative to the
// foreground decides how much delayed flushing sacrifices, so its hit ratio
// and ALWA move with host timing on either backend. What holds for it across
// backends is the contract: the same ops, no read or write errors, and
// quality within the spread flusher timing causes (0.5 pt of hit ratio, 0.15
// of ALWA) — a device implementation leaking into the metrics shows as more.
func TestCompareTableIdenticalAcrossBackendsAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend replay is a long test")
	}
	run := func(spec backend.Spec) []string {
		var buf bytes.Buffer
		err := RunCompare(CompareConfig{
			Scale:    "small",
			Shards:   []int{2},
			Ops:      20_000,
			Seed:     11,
			Async:    true,
			Flushers: 2,
			SetFrac:  0.1,
			DelFrac:  0.02,
			Engines:  []string{"nemo", "log"},
			HostTime: false,
			Device:   spec,
			Out:      &buf,
		})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		return strings.Split(buf.String(), "\n")
	}
	sim := run(backend.Sim())
	file := run(backend.File(t.TempDir() + "/nemo.img"))
	if len(sim) != len(file) {
		t.Fatalf("async quality tables differ in length\n--- sim ---\n%s\n--- file ---\n%s",
			strings.Join(sim, "\n"), strings.Join(file, "\n"))
	}
	nemoRows := 0
	for i := range sim {
		if !strings.HasPrefix(sim[i], "Nemo ") {
			// The title (which carries the op count), the column header and
			// the deterministic engines' rows.
			if sim[i] != file[i] {
				t.Errorf("line %d differs across backends\n sim: %s\nfile: %s", i, sim[i], file[i])
			}
			continue
		}
		nemoRows++
		// engine shards batch hit% ALWA totalWA rderr wrerr
		s, f := strings.Fields(sim[i]), strings.Fields(file[i])
		if len(s) != 8 || len(f) != 8 {
			t.Fatalf("unexpected Nemo row shape\n sim: %s\nfile: %s", sim[i], file[i])
		}
		for _, col := range []int{0, 1, 2, 6, 7} {
			if s[col] != f[col] {
				t.Errorf("Nemo column %d differs across backends: sim %s, file %s", col, s[col], f[col])
			}
		}
		for _, row := range [][]string{s, f} {
			if row[6] != "0" || row[7] != "0" {
				t.Errorf("Nemo row reports errors (rderr %s, wrerr %s): %s", row[6], row[7], strings.Join(row, " "))
			}
		}
		for _, c := range []struct {
			name string
			col  int
			tol  float64
		}{{"hit%", 3, 0.5}, {"ALWA", 4, 0.15}} {
			sv, err1 := strconv.ParseFloat(s[c.col], 64)
			fv, err2 := strconv.ParseFloat(f[c.col], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("Nemo %s does not parse: sim %q, file %q", c.name, s[c.col], f[c.col])
			}
			if math.Abs(sv-fv) > c.tol {
				t.Errorf("Nemo %s differs across backends by more than %v: sim %v, file %v", c.name, c.tol, sv, fv)
			}
		}
	}
	if nemoRows != 1 {
		t.Fatalf("found %d Nemo rows, want 1\n%s", nemoRows, strings.Join(sim, "\n"))
	}
}
