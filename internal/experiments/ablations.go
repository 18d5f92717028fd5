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

func runAblSGSize(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	t := rep.table("", "sets/SG", "fill", "WA", "reads/get")
	totalPages := g.PagesPerZone * g.Zones
	for _, ppz := range []int{g.PagesPerZone / 4, g.PagesPerZone / 2, g.PagesPerZone, g.PagesPerZone * 2} {
		if ppz < 8 {
			continue
		}
		// The same pages cut into zones of ppz: every preset's page count
		// divides evenly, so capacity and workload are those of g.
		sg := geometry{PageSize: g.PageSize, PagesPerZone: ppz, Zones: totalPages / ppz, Ops: g.Ops}
		nemo, res, err := replay(sg, o, nemoOn(nil))
		if err != nil {
			return rep, err
		}
		readsPerGet := float64(res.Final.FlashReadOps) / float64(res.Final.Gets)
		r := nemo.Readout()
		t.row(fmt.Sprint(ppz), pct("%.1f", r.MeanFillRate()), num("%.2f", r.PaperWA()), num("%.2f", readsPerGet))
	}
	return rep, nil
}

func runAblCooling(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	t := rep.table("", "period", "writebacks", "coolings", "miss")
	for _, period := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		nemo, res, err := replay(g, o, nemoOn(func(cfg *core.Config) {
			cfg.CoolingWriteRatio = period
		}))
		if err != nil {
			return rep, err
		}
		ex := nemo.Readout()
		t.row(fmt.Sprintf("%.0f%%", period*100), count(ex.WriteBackObjs), count(ex.CoolingRuns), pct("%.1f", res.Final.MissRatio()))
	}
	return rep, nil
}

func runAblFPR(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	t := rep.table("", "FPR", "fp reads/get", "idx reads/get", "bits/obj")
	for _, fpr := range []float64{0.01, 0.005, 0.001, 0.0005} {
		label := fmt.Sprintf("%.2f%%", fpr*100)
		nemo, res, err := replay(g, o, nemoOn(func(cfg *core.Config) {
			cfg.BloomFPR = fpr
		}))
		if nemo == nil {
			// Larger filters may overflow the PBFG page at fixed group
			// size; report and continue — that is itself the trade-off.
			t.row(label, text(fmt.Sprintf("(skipped: %v)", err)))
			continue
		}
		if err != nil {
			return rep, err
		}
		gets := float64(res.Final.Gets)
		shard0 := nemo.Shard(0).Readout()
		t.row(label, num("%.4f", float64(nemo.Readout().FalsePositiveReads)/gets), num("%.4f", float64(shard0.PBFGMisses)/gets),
			num("%.1f", shard0.Model.BloomBitsPerObj))
	}
	return rep, nil
}

func runAblSkew(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	t := rep.table("", "alpha", "miss (W on)", "miss (W off)", "writebacks")
	for _, alpha := range []float64{1.05, 1.2, 1.4} {
		cells := make([]Cell, 3)
		for i, wb := range []bool{true, false} {
			// The run's own Zipf stream replaces the standard workload.
			dev, nemo, _, err := setup(g, o, nemoOn(func(cfg *core.Config) {
				cfg.Writeback = wb
			}))
			if err != nil {
				return rep, err
			}
			cl := trace.ClusterConfig{
				Name: "skew", KeySize: 24, ValueMean: 250, ValueStd: 100,
				ZipfAlpha: alpha, Seed: o.Seed + int64(alpha*100),
			}
			stream := trace.NewZipf(cl.Scaled(g.capacityBytes() * 14 / 10))
			res, err := cachelib.Replay(nemo, stream, replayCfg(g, o, dev))
			if err != nil {
				return rep, err
			}
			cells[i] = pct("%.1f", res.Final.MissRatio())
			if wb {
				cells[2] = count(nemo.Readout().WriteBackObjs)
			}
		}
		t.row(fmt.Sprintf("%.2f", alpha), cells...)
	}
	return rep, nil
}
