package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in config.go")

// benchmarkJSON is BENCHMARK.json as the tables in config.go define it.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestBenchmarkJSONMatchesTables: the file the pipeline reads declares
// exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in config.go; run go test ./benchmark -run BenchmarkJSON -update\n%s", want)
	}
}

// TestTablesMeetTheContract: names, units and limits the pipeline refuses a
// file for.
func TestTablesMeetTheContract(t *testing.T) {
	const nameChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
	const unitChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-"
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if n == "" || len(n) > 64 || strings.Trim(n, nameChars) != "" || strings.ContainsAny(n[:1], "_.-") || seen[n] {
			t.Errorf("name %q is not a fresh contract-legal name", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(d.Name)
		if d.Unit == "" || len(d.Unit) > 16 || strings.Trim(d.Unit, unitChars) != "" {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// TestDiffVerdicts: worse, within and better on both metric directions, and
// the exit code of -diff.
func TestDiffVerdicts(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "hit_ratio", Better: "higher", Bound: 0.02}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want string
	}{
		{lower, 100, 111, "worse"},
		{lower, 100, 109, "within"},
		{lower, 100, 92, "within"},
		{lower, 100, 85, "better"},
		{higher, 0.50, 0.485, "worse"},
		{higher, 0.50, 0.495, "within"},
		{higher, 0.50, 0.52, "better"},
	} {
		if _, got := verdictOf(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}

	set := func(cpu float64, failed int64) *resultSet {
		s := &resultSet{Seed: 1, Seconds: 10}
		for _, wl := range workloads {
			r := &result{Workload: wl.Name, Attempted: 100, Failed: failed, Metrics: map[string]float64{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = 1
			}
			r.Metrics["cpu_us_per_op"] = cpu
			s.Results = append(s.Results, r)
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		p := filepath.Join(dir, name)
		if err := s.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", set(100, 0))
	var out bytes.Buffer
	if code := diffFiles(&out, base, write("same.json", set(104, 0))); code != 0 {
		t.Errorf("within the bound: exit %d\n%s", code, out.String())
	}
	if code := diffFiles(&out, base, write("slow.json", set(130, 0))); code != 1 {
		t.Errorf("30%% worse: exit %d", code)
	}
	if code := diffFiles(&out, base, write("failed.json", set(100, 3))); code != 1 {
		t.Errorf("failed operations: exit %d", code)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "within") {
		t.Errorf("the table marks neither worse nor within:\n%s", out.String())
	}
}
