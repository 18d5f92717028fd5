package experiments

import (
	"fmt"
	"sort"

	"nemo/internal/core"
	"nemo/internal/hashing"
	"nemo/internal/trace"
)

func init() {
	register("fig17", "Figure 17: 'perfect' SG fill-rate breakdown (naive/B/P/B+P/B+P+W)", runFig17)
	register("fig18", "Figure 18: flush-threshold (p_th) sweep — new objects per SG and WA", runFig18)
	register("fig19a", "Figure 19a: set access distribution (requests served by top-accessed sets)", runFig19a)
	register("fig19b", "Figure 19b: PBFG miss ratio vs in-memory PBFG proportion", runFig19b)
}

// sgHeavyGeometry uses SGs with many sets. The short-term hash skew that
// motivates techniques B/P/W (Challenge 1, Figure 8) grows with the number
// of sets per SG — the paper's SGs hold 275,712 sets — so the fill-rate
// breakdown and p_th sweep run on fewer, larger SGs than the default
// geometry.
func sgHeavyGeometry(o Options) geometry {
	switch o.Scale {
	case "small":
		return geometry{PageSize: 4096, PagesPerZone: 512, Zones: 12, Ops: 2_000_000}
	case "large":
		return geometry{PageSize: 4096, PagesPerZone: 4096, Zones: 24, Ops: 16_000_000}
	default:
		return geometry{PageSize: 4096, PagesPerZone: 2048, Zones: 16, Ops: 8_000_000}
	}
}

func runFig17(o Options) error {
	o = o.withDefaults()
	g := sgHeavyGeometry(o)
	fmt.Fprintln(o.Out, "Figure 17 — mean SG fill rate by technique (paper: 6.78 / 31.32 / 36.77 / 64.13 / 89.34 %)")
	variants := []struct {
		label   string
		b, p, w bool
	}{
		{"naive", false, false, false},
		{"B", true, false, false},
		{"P", false, true, false},
		{"B+P", true, true, false},
		{"B+P+W", true, true, true},
	}
	for _, v := range variants {
		nemo, _, err := runNemo(g, o, func(cfg *core.Config) {
			cfg.BufferedSGs = v.b
			cfg.DelayedFlush = v.p
			cfg.Writeback = v.w
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-8s fill=%6.2f%%  WA=%6.2f  (SGs flushed: %d)\n",
			v.label, nemo.MeanFillRate()*100, nemo.PaperWA(), nemo.Extra().SGsFlushed)
	}
	return nil
}

func runFig18(o Options) error {
	o = o.withDefaults()
	g := sgHeavyGeometry(o)
	fmt.Fprintln(o.Out, "Figure 18 — p_th (sacrificed-object threshold) sweep")
	fmt.Fprintf(o.Out, "%8s %12s %12s %10s %12s\n", "p_th", "1st-SG objs", "2nd-SG objs", "WA", "sacrificed")
	for _, pth := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		nemo, _, err := runNemo(g, o, func(cfg *core.Config) {
			cfg.FlushThreshold = pth
		})
		if err != nil {
			return err
		}
		log := nemo.FlushLog()
		first, second := 0, 0
		if len(log) > 0 {
			first = log[0].NewObjs
		}
		if len(log) > 1 {
			second = log[1].NewObjs
		}
		fmt.Fprintf(o.Out, "%8d %12d %12d %10.2f %12d\n",
			pth, first, second, nemo.PaperWA(), nemo.Extra().Sacrificed)
	}
	fmt.Fprintln(o.Out, "(Paper: new objects rise and WA falls with p_th, with diminishing returns.)")
	return nil
}

func runFig19a(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 19a — requests served by the top-accessed intra-SG offsets")
	numSets := g.PagesPerZone // sets per SG
	ops := g.ops(o)
	tops := []float64{0.2, 0.3, 0.4, 0.5, 0.6}
	fmt.Fprintf(o.Out, "%-10s", "cluster")
	for _, tp := range tops {
		fmt.Fprintf(o.Out, "  top%2.0f%%", tp*100)
	}
	fmt.Fprintln(o.Out)
	for _, cl := range trace.Clusters {
		cfg := cl.Scaled(g.capacityBytes() / 2)
		cfg.Seed += o.Seed * 7
		s := trace.NewZipf(cfg)
		counts := make([]int64, numSets)
		var req trace.Request
		var total int64
		for i := 0; i < ops; i++ {
			s.Next(&req)
			fp := hashing.Fingerprint(req.Key)
			counts[hashing.Derive(fp, 0)%uint64(numSets)]++
			total++
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		fmt.Fprintf(o.Out, "%-10s", cl.Name)
		for _, tp := range tops {
			n := int(tp * float64(numSets))
			var served int64
			for i := 0; i < n; i++ {
				served += counts[i]
			}
			fmt.Fprintf(o.Out, "  %5.1f%%", float64(served)/float64(total)*100)
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintln(o.Out, "(Paper: ≈70% of accesses concentrate in the top 30% of sets.)")
	return nil
}

func runFig19b(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 19b — PBFG miss ratio vs DRAM PBFG proportion (paper: <8% at 50%)")
	for _, ratio := range []float64{0.2, 0.3, 0.4, 0.5, 0.6} {
		nemo, _, err := runNemo(g, o, func(cfg *core.Config) {
			cfg.CachedPBFGRatio = ratio
		})
		if err != nil {
			return err
		}
		lookups, misses, missRatio := nemo.PBFGStats()
		fmt.Fprintf(o.Out, "  DRAM PBFG %3.0f%%: miss ratio %6.2f%%  (%d/%d)\n",
			ratio*100, missRatio*100, misses, lookups)
	}
	return nil
}
