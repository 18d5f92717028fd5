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

	"nemo"
	"nemo/internal/experiments"
)

// BenchmarkExperiment runs each experiment at smoke scale (150k ops) so the
// whole table/figure suite completes in minutes; `nemobench -exp <id>` runs
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

// BenchmarkNemoSteadyState measures Nemo's end-to-end throughput and
// reports the paper's headline metrics as custom units.
func BenchmarkNemoSteadyState(b *testing.B) {
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 32, Zones: 56})
	cache, err := nemo.New(nemo.DefaultConfig(dev, 48))
	if err != nil {
		b.Fatal(err)
	}
	workload, err := nemo.NewWorkload(dev.CapacityBytes()*3/4, 1)
	if err != nil {
		b.Fatal(err)
	}
	var req nemo.Request
	// Warm up to steady state (pool cycling).
	for i := 0; i < 120_000; i++ {
		workload.Next(&req)
		if _, hit := cache.Get(req.Key); !hit {
			if err := cache.Set(req.Key, req.Value); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Next(&req)
		if _, hit := cache.Get(req.Key); !hit {
			if err := cache.Set(req.Key, req.Value); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(cache.PaperWA(), "WA")
	b.ReportMetric(cache.MeanFillRate()*100, "fill%")
	st := cache.Stats()
	b.ReportMetric(st.MissRatio()*100, "miss%")
}

// BenchmarkEngineSetPath compares raw Set throughput across all engines.
func BenchmarkEngineSetPath(b *testing.B) {
	type mk struct {
		name string
		mk   func(nemo.Device) (nemo.Engine, error)
	}
	engines := []mk{
		{"Nemo", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.New(nemo.DefaultConfig(d, 48))
		}},
		{"Log", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewLogCache(nemo.LogCacheConfig{Device: d})
		}},
		{"Set", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewSetCache(nemo.SetCacheConfig{Device: d, OPRatio: 0.5})
		}},
		{"FW", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewFairyWREN(nemo.FairyWRENConfig{Device: d})
		}},
		{"KG", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewKangaroo(nemo.KangarooConfig{Device: d})
		}},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 32, Zones: 56})
			eng, err := e.mk(dev)
			if err != nil {
				b.Fatal(err)
			}
			workload, err := nemo.NewWorkload(dev.CapacityBytes(), 2)
			if err != nil {
				b.Fatal(err)
			}
			var req nemo.Request
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.Next(&req)
				if err := eng.Set(req.Key, req.Value); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(eng.Stats().ALWA(), "ALWA")
		})
	}
}

// BenchmarkGetHitPath measures steady-state GET latency (simulation CPU
// cost, not virtual device latency).
func BenchmarkGetHitPath(b *testing.B) {
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 32, Zones: 56})
	cache, err := nemo.New(nemo.DefaultConfig(dev, 48))
	if err != nil {
		b.Fatal(err)
	}
	workload, err := nemo.NewWorkload(dev.CapacityBytes()/2, 3)
	if err != nil {
		b.Fatal(err)
	}
	var req nemo.Request
	for i := 0; i < 100_000; i++ {
		workload.Next(&req)
		if _, hit := cache.Get(req.Key); !hit {
			cache.Set(req.Key, req.Value)
		}
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		workload.Next(&req)
		if _, hit := cache.Get(req.Key); hit {
			hits++
		} else {
			cache.Set(req.Key, req.Value)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(hits)/float64(b.N)*100, "hit%")
	}
}
