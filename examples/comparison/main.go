// Comparison runs the same workload through all five cache designs — Nemo,
// the log-structured and set-associative extremes, and the two hierarchical
// baselines — and prints a Figure 12a-style summary of the trade-off space:
// write amplification vs memory vs miss ratio.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"nemo"
)

func main() {
	ops := flag.Int("ops", 600_000, "requests per engine")
	flag.Parse()

	type build struct {
		name string
		mk   func(nemo.Device) (nemo.Engine, error)
	}
	builds := []build{
		{"Nemo", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.New(nemo.DefaultConfig(d, d.Zones()-nemo.IndexZonesFor(d.Zones()-4, 50)-1))
		}},
		{"Log", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewLogCache(nemo.LogCacheConfig{Device: d})
		}},
		{"Set", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewSetCache(nemo.SetCacheConfig{Device: d})
		}},
		{"FW", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewFairyWREN(nemo.FairyWRENConfig{Device: d})
		}},
		{"KG", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewKangaroo(nemo.KangarooConfig{Device: d})
		}},
	}

	fmt.Printf("%-6s %8s %8s %8s %10s %12s\n", "engine", "ALWA", "totalWA", "miss", "p99 read", "flash MB")
	for _, b := range builds {
		dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: 80})
		e, err := b.mk(dev)
		if err != nil {
			log.Fatalf("%s: %v", b.name, err)
		}
		workload, err := nemo.NewWorkload(dev.CapacityBytes()*3/4, 7)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nemo.Replay(e, workload, nemo.ReplayConfig{
			Ops:          *ops,
			InterArrival: 10 * time.Microsecond,
			Clock:        dev.Clock(),
		})
		if err != nil {
			log.Fatalf("%s: %v", b.name, err)
		}
		st := res.Final
		fmt.Printf("%-6s %8.2f %8.2f %7.1f%% %10v %12.1f\n",
			b.name, st.ALWA(), st.TotalWA(), st.MissRatio()*100,
			res.Latency.P99, float64(st.DeviceBytesWritten)/(1<<20))
		e.Close()
	}
	fmt.Println("\n(Paper Figure 12a: Nemo 1.56, Log 1.08, FW 15.2, Set 16.31, KG 55.59 —")
	fmt.Println(" the ordering and rough factors should reproduce; absolute values depend on scale.)")
}
