package experiments

import (
	"fmt"

	"nemo/internal/core"
	"nemo/internal/trace"
	"nemo/internal/wamodel"
)

func runTab3(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	dev := g.newDevice()
	cfg := core.DefaultConfig(dev, maxDataZones(g.Zones, 50))
	t := rep.table("", "parameter", "value", "paper")
	t.row("set size", num("%.0f B", float64(dev.PageSize())), text("4 KB"))
	t.row("sets per SG", count(dev.PagesPerZone()), text("275,712; scaled with zone size"))
	t.row("PBFG false-positive rate", pct("%.3f", cfg.BloomFPR), text("0.1%"))
	t.row("#SGs : #index groups", num("%.0f:1", float64(cfg.SGsPerIndexGroup)), text("50:1"))
	t.row("in-memory SGs", count(cfg.MemSGs()), text("2"))
	t.row("flushing threshold p_th", count(cfg.FlushThreshold), text("4,096; count-based, scaled with SG size"))
	t.row("cached PBFG ratio", pct("%.0f", cfg.CachedPBFGRatio), text("50%"))
	t.row("hotness tracking covers the last", pct("%.0f", core.HotTrackTail), text("30% of the cache"))
	t.row("SG cooling period, in cache written", pct("%.0f", cfg.CoolingWriteRatio), text("10%"))
	return rep, nil
}

func runTab5(o Options) (Report, error) {
	var rep Report
	t := rep.table("", "trace", "K-size", "V-size", "obj mean", "Zipf α")
	for _, c := range trace.Clusters {
		t.row(c.Name, num("%.0fB", float64(c.KeySize)), num("%.0fB", float64(c.ValueMean)),
			num("%.0fB", float64(c.ObjectMean())), num("%.4f", c.ZipfAlpha))
	}
	return rep, nil
}

func runTab6(o Options) (Report, error) {
	rep := Report{Paper: "FW 9.9, naive Nemo 30.4, Nemo 8.3"}
	t := rep.table("", "design", "log", "set-index", "set-other", "evict", "additional", "total")
	f1 := func(v float64) Cell { return num("%.1f", v) }
	for _, r := range wamodel.Table6(wamodel.DefaultTable6()) {
		t.row(r.Name, f1(r.LogBits), f1(r.SetIndex), f1(r.SetOther), f1(r.EvictBits), f1(r.Additional), f1(r.Total))
	}
	return rep, nil
}

func runSec55(o Options) (Report, error) {
	rep := Report{Paper: "Nemo reads >3× FW's flash bytes per hit, hidden by parallel reads; 8.3 bits/obj"}
	g := geometryFor(o)
	nemoCache, nemoRes, err := replay(g, o, nemoOn(nil))
	if err != nil {
		return rep, err
	}
	_, fwRes, err := replay(g, o, fwOn("Log5-OP5"))
	if err != nil {
		return rep, err
	}
	nr := nemoRes.Final.ReadAmplification()
	fr := fwRes.Final.ReadAmplification()
	t := rep.table("flash reads per hit", "system", "value")
	t.row("Nemo", num("%.0f B", nr))
	t.row("FW", num("%.0f B", fr))
	if fr > 0 {
		t.row("Nemo / FW", num("%.2f×", nr/fr))
	}
	m := nemoCache.Shard(0).Readout().Model
	t = rep.table("Nemo memory model (bits/obj)", "", "bloom", "hot", "buffer", "total")
	t.row("Nemo", num("%.1f", m.BloomBitsPerObj), num("%.1f", m.HotBitsPerObj), num("%.1f", m.BufferBitsPerObj), num("%.1f", m.TotalBitsPerObj))
	// The same objects' index metadata as the engine holds it (the resident
	// ledger), by layer, beside the model's total.
	r := nemoCache.Readout()
	perObj := func(b uint64) Cell { return num("%.1f", float64(b)*8/float64(max(r.Objects, 1))) }
	t = rep.table("Nemo memory measured (bits/obj)", "", "pbfg cache", "group buffers", "sg meta", "total", "model")
	t.row("Nemo", perObj(r.PBFGCache), perObj(r.GroupBuffers), perObj(r.SGMeta), perObj(r.PaperMeta()), num("%.1f", m.TotalBitsPerObj))
	rep.Notes = []string{"PBFG compute cost: see BenchmarkPBFGLookup1000 (paper ≈1 µs per 1000 filters)"}
	return rep, nil
}

func runAppA(o Options) (Report, error) {
	rep := Report{Paper: "7+1.35 vs 9+1.03 — higher accuracy does not pay"}
	cfg := wamodel.PBFGCostConfig{NumSGs: 350, TargetObjsPerSet: 40, PageSize: 4096}
	t := rep.table("expected worst-case flash accesses per lookup (N=350 SGs)", "FPR", "PBFG pages", "object rds", "total")
	for _, fpr := range []float64{0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001} {
		pages, objs, total := wamodel.PBFGCost(cfg, fpr)
		t.row(fmt.Sprintf("%.3f%%", fpr*100), num("%.0f", pages), num("%.2f", objs), num("%.2f", total))
	}
	best, cost := wamodel.OptimalFPR(cfg, nil)
	rep.table("optimum by Eq. 11", "", "FPR", "cost").row("optimal", pct("%.3f", best), num("%.2f", cost))
	return rep, nil
}
