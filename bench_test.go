package nemo_test

// bench_test.go — one benchmark per paper artifact. BenchmarkExperiment
// runs every registered experiment at "small" scale once per iteration (b.N
// is normally 1 for these macro-benchmarks) and reports the headline cell of
// its Report as a custom unit, so `go test -bench` output doubles as a
// results table. cmd/nemobench runs the same experiments at full scale with
// printed rows.

import (
	"strings"
	"testing"

	"nemo/internal/experiments"
)

// BenchmarkExperiment runs each experiment at smoke scale (150k ops) so the
// whole table/figure suite completes in minutes; `nemobench exp <id>` runs
// the same code at the medium and large scales.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			var rep experiments.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = e.Run(experiments.Options{Scale: "small", Ops: 150_000, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			cell, ok := rep.Lookup(rep.Headline)
			if !ok {
				b.Fatalf("no headline cell %+v", rep.Headline)
			}
			b.ReportMetric(cell.V, strings.ReplaceAll(rep.Headline.Col, " ", "_"))
		})
	}
}
