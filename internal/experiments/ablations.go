package experiments

// Ablations beyond the paper's figures, probing Nemo's design choices: SG
// (zone) size, cooling period, Bloom FPR (tying the measured system back to
// the Appendix A model), and writeback under different workload skews.

import (
	"fmt"

	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/trace"
)

func init() {
	register("abl-sgsize", "Ablation: SG (zone) size vs fill rate, WA, and read amplification", runAblSGSize)
	register("abl-cooling", "Ablation: cooling period vs writeback volume and miss ratio", runAblCooling)
	register("abl-fpr", "Ablation: Bloom FPR vs false-positive reads and index traffic (Appendix A measured)", runAblFPR)
	register("abl-skew", "Ablation: writeback benefit vs workload skew (Zipf α)", runAblSkew)
}

func runAblSGSize(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Ablation — SG size (sets per SG) at constant total capacity")
	fmt.Fprintf(o.Out, "%10s %10s %8s %14s\n", "sets/SG", "fill", "WA", "reads/get")
	totalPages := g.PagesPerZone * g.Zones
	for _, ppz := range []int{g.PagesPerZone / 4, g.PagesPerZone / 2, g.PagesPerZone, g.PagesPerZone * 2} {
		if ppz < 8 {
			continue
		}
		// The same pages cut into zones of ppz: every preset's page count
		// divides evenly, so capacity and workload are those of g.
		sg := geometry{PageSize: g.PageSize, PagesPerZone: ppz, Zones: totalPages / ppz, Ops: g.Ops}
		nemo, res, err := runNemo(sg, o, nil)
		if err != nil {
			return err
		}
		readsPerGet := float64(res.Final.FlashReadOps) / float64(res.Final.Gets)
		fmt.Fprintf(o.Out, "%10d %9.1f%% %8.2f %14.2f\n",
			ppz, nemo.MeanFillRate()*100, nemo.PaperWA(), readsPerGet)
	}
	return nil
}

func runAblCooling(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Ablation — cooling period (fraction of capacity written between cooling passes)")
	fmt.Fprintf(o.Out, "%10s %12s %12s %8s\n", "period", "writebacks", "coolings", "miss")
	for _, period := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		nemo, res, err := runNemo(g, o, func(cfg *core.Config) {
			cfg.CoolingWriteRatio = period
		})
		if err != nil {
			return err
		}
		ex := nemo.Extra()
		fmt.Fprintf(o.Out, "%9.0f%% %12d %12d %7.1f%%\n",
			period*100, ex.WriteBackObjs, ex.CoolingRuns, res.Final.MissRatio()*100)
	}
	return nil
}

func runAblFPR(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Ablation — Bloom FPR: measured counterpart of the Appendix A trade-off")
	fmt.Fprintf(o.Out, "%10s %14s %14s %12s\n", "FPR", "fp reads/get", "idx reads/get", "bits/obj")
	for _, fpr := range []float64{0.01, 0.005, 0.001, 0.0005} {
		dev, nemo, stream, err := nemoSetup(g, o, func(cfg *core.Config) {
			cfg.BloomFPR = fpr
		})
		if err != nil {
			// Larger filters may overflow the PBFG page at fixed group
			// size; report and continue — that is itself the trade-off.
			fmt.Fprintf(o.Out, "%9.2f%% (skipped: %v)\n", fpr*100, err)
			continue
		}
		res, err := cachelib.Replay(nemo, stream, replayCfg(g, o, dev))
		if err != nil {
			return err
		}
		ex := nemo.Extra()
		fpReads := float64(ex.FalsePositiveReads) / float64(res.Final.Gets)
		_, misses, _ := nemo.PBFGStats()
		idxReads := float64(misses) / float64(res.Final.Gets)
		fmt.Fprintf(o.Out, "%9.2f%% %14.4f %14.4f %12.1f\n",
			fpr*100, fpReads, idxReads, nemo.MemoryOverhead().BloomBitsPerObj)
	}
	return nil
}

func runAblSkew(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Ablation — writeback benefit vs Zipf skew (miss ratio with/without W)")
	fmt.Fprintf(o.Out, "%8s %14s %14s %12s\n", "alpha", "miss (W on)", "miss (W off)", "writebacks")
	for _, alpha := range []float64{1.05, 1.2, 1.4} {
		miss := map[bool]float64{}
		var wbObjs uint64
		for _, wb := range []bool{true, false} {
			// The run's own Zipf stream replaces the standard workload.
			dev, nemo, _, err := nemoSetup(g, o, func(cfg *core.Config) {
				cfg.Writeback = wb
			})
			if err != nil {
				return err
			}
			cl := trace.ClusterConfig{
				Name: "skew", KeySize: 24, ValueMean: 250, ValueStd: 100,
				ZipfAlpha: alpha, Seed: o.Seed + int64(alpha*100),
			}
			stream := trace.NewZipf(cl.Scaled(g.capacityBytes() * 14 / 10))
			res, err := cachelib.Replay(nemo, stream, replayCfg(g, o, dev))
			if err != nil {
				return err
			}
			miss[wb] = res.Final.MissRatio()
			if wb {
				wbObjs = nemo.Extra().WriteBackObjs
			}
		}
		fmt.Fprintf(o.Out, "%8.2f %13.1f%% %13.1f%% %12d\n",
			alpha, miss[true]*100, miss[false]*100, wbObjs)
	}
	return nil
}
