package experiments

import (
	"fmt"
	"sort"

	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/hashing"
	"nemo/internal/trace"
	"nemo/internal/wamodel"
)

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

func runFig17(o Options) (Report, error) {
	rep := Report{Paper: "6.78 / 31.32 / 36.77 / 64.13 / 89.34 %"}
	g := sgHeavyGeometry(o)
	// 1/fill is Eq. 9, the WA a fill rate alone predicts; measured WA
	// differs by the index pages written and the sacrificed objects.
	t := rep.table("", "technique", "fill", "WA", "1/fill", "SGs flushed")
	for _, v := range []struct {
		label   string
		b, p, w bool
	}{
		{"naive", false, false, false},
		{"B", true, false, false},
		{"P", false, true, false},
		{"B+P", true, true, false},
		{"B+P+W", true, true, true},
	} {
		nemo, _, err := replay(g, o, nemoOn(func(cfg *core.Config) {
			cfg.BufferedSGs = v.b
			cfg.DelayedFlush = v.p
			cfg.Writeback = v.w
		}))
		if err != nil {
			return rep, err
		}
		r := nemo.Readout()
		eq9, err := wamodel.NemoWA(r.MeanFillRate())
		if err != nil {
			return rep, err
		}
		t.row(v.label, pct("%.2f", r.MeanFillRate()), num("%.2f", r.PaperWA()), num("%.2f", eq9), count(r.SGsFlushed))
	}
	return rep, nil
}

func runFig18(o Options) (Report, error) {
	rep := Report{Paper: "new objects rise and WA falls with p_th, with diminishing returns"}
	g := sgHeavyGeometry(o)
	t := rep.table("", "p_th", "1st-SG objs", "2nd-SG objs", "WA", "sacrificed")
	for _, pth := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		dev, nemo, stream, err := setup(g, o, nemoOn(func(cfg *core.Config) {
			cfg.FlushThreshold = pth
		}))
		if err != nil {
			return rep, err
		}
		// The replay steps one request at a time until the second SG has
		// flushed, reading NewObjs after each flush, then runs the rest.
		cfg := replayCfg(g, o, dev)
		step := cfg
		step.Ops = 1
		var after [2]uint64 // NewObjs once the first and the second SG flushed
		for flushed := uint64(0); flushed < 2 && cfg.Ops > 0; cfg.Ops-- {
			if _, err := cachelib.Replay(nemo, stream, step); err != nil {
				return rep, err
			}
			r := nemo.Readout()
			for ; flushed < min(r.SGsFlushed, 2); flushed++ {
				after[flushed] = r.NewObjs
			}
		}
		if _, err := cachelib.Replay(nemo, stream, cfg); err != nil {
			return rep, err
		}
		second := uint64(0)
		if after[1] > 0 {
			second = after[1] - after[0]
		}
		r := nemo.Readout()
		t.row(fmt.Sprint(pth), count(after[0]), count(second), num("%.2f", r.PaperWA()), count(r.Sacrificed))
	}
	return rep, nil
}

func runFig19a(o Options) (Report, error) {
	rep := Report{Paper: "≈70% of accesses concentrate in the top 30% of sets"}
	g := geometryFor(o)
	numSets := g.PagesPerZone // sets per SG
	ops := g.ops(o)
	tops := []float64{0.2, 0.3, 0.4, 0.5, 0.6}
	cols := []string{"cluster"}
	for _, tp := range tops {
		cols = append(cols, fmt.Sprintf("top%.0f%%", tp*100))
	}
	t := rep.table("", cols...)
	for _, cl := range trace.Clusters {
		cfg := cl.Scaled(g.capacityBytes() / 2)
		cfg.Seed += o.Seed * 7
		s := trace.NewZipf(cfg)
		counts := make([]int64, numSets)
		var req trace.Request
		for i := 0; i < ops; i++ {
			s.Next(&req)
			fp := hashing.Fingerprint(req.Key)
			counts[hashing.Derive(fp, 0)%uint64(numSets)]++
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		var cells []Cell
		for _, tp := range tops {
			n := int(tp * float64(numSets))
			var served int64
			for i := 0; i < n; i++ {
				served += counts[i]
			}
			cells = append(cells, pct("%.1f", float64(served)/float64(ops)))
		}
		t.row(cl.Name, cells...)
	}
	return rep, nil
}

func runFig19b(o Options) (Report, error) {
	rep := Report{Paper: "<8% at 50%"}
	g := geometryFor(o)
	t := rep.table("", "DRAM PBFG", "miss ratio", "misses", "lookups")
	for _, ratio := range []float64{0.2, 0.3, 0.4, 0.5, 0.6} {
		nemo, _, err := replay(g, o, nemoOn(func(cfg *core.Config) {
			cfg.CachedPBFGRatio = ratio
		}))
		if err != nil {
			return rep, err
		}
		r := nemo.Shard(0).Readout()
		t.row(fmt.Sprintf("%.0f%%", ratio*100), pct("%.2f", r.PBFGMissRatio()), count(r.PBFGMisses), count(r.PBFGLookups))
	}
	return rep, nil
}
