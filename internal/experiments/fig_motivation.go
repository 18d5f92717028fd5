package experiments

import (
	"fmt"

	"nemo/internal/cachelib"
	"nemo/internal/fairywren"
	"nemo/internal/metrics"
	"nemo/internal/wamodel"
)

// runFW replays the standard workload against one FairyWREN variant in 32
// phases with no clock (§3.2 measures migration, not latency), invoking
// phase after each.
func runFW(o Options, variant string, phase func(done int, fw *fairywren.Cache)) (*fairywren.Cache, error) {
	g := geometryFor(o)
	_, fw, stream, err := setup(g, o, fwOn(variant))
	if err != nil {
		return nil, err
	}
	ops := g.ops(o)
	for done := 0; done < ops; {
		n := min(max(ops/32, 1), ops-done)
		if _, err := cachelib.Replay(fw, stream, cachelib.ReplayConfig{Ops: n}); err != nil {
			return nil, err
		}
		done += n
		if phase != nil {
			phase(done, fw)
		}
	}
	return fw, nil
}

// cdfColumns heads a table of migration batch-size CDFs, one cdfRow each.
var cdfColumns = []string{"config", "≤0", "≤1", "≤2", "≤3", "≤4", "≤5", "≤6", "≤7", "≤8", "≤9", "≤10", "11+", "mean batch"}

func cdfRow(t *Table, label string, c *metrics.IntCDF) {
	var cells []Cell
	for _, p := range c.CDF() {
		cells = append(cells, pct("%.1f", p))
	}
	t.row(label, append(cells, num("%.2f", c.Mean()))...)
}

func runFig4(o Options) (Report, error) {
	var rep Report
	t := rep.table("", cdfColumns...)

	// Log5-OP5 with an early/steady phase split at the first active
	// migration (GC), as in the paper.
	split := false
	fw, err := runFW(o, "Log5-OP5", func(done int, fw *fairywren.Cache) {
		if !split && fw.Migration().ActiveRMW > 0 {
			cdfRow(t, "Log5-OP5 (Early)", fw.Migration().PassiveCDF)
			fw.ResetMigrationCDFs()
			split = true
		}
	})
	if err != nil {
		return rep, err
	}
	if !split {
		cdfRow(t, "Log5-OP5 (Early=all, no GC)", fw.Migration().PassiveCDF)
	}
	cdfRow(t, "Log5-OP5 (Steady)", fw.Migration().PassiveCDF)

	for _, variant := range []string{"Log20-OP5", "Log5-OP50"} {
		fw, err := runFW(o, variant, nil)
		if err != nil {
			return rep, err
		}
		cdfRow(t, variant, fw.Migration().PassiveCDF)
	}
	return rep, nil
}

func runFig5(o Options) (Report, error) {
	var rep Report
	t := rep.table("", cdfColumns...)
	for _, variant := range []string{"Log5-OP5", "Log10-OP5"} {
		fw, err := runFW(o, variant, nil)
		if err != nil {
			return rep, err
		}
		cdfRow(t, variant+" (Passive)", fw.Migration().PassiveCDF)
		cdfRow(t, variant+" (Active)", fw.Migration().ActiveCDF)
	}
	rep.Notes = []string{"Observation 3: the passive mean batch is ≈2× the active one."}
	return rep, nil
}

func runFig6(o Options) (Report, error) {
	var rep Report
	for _, variant := range []string{"Log5-OP5", "Log5-OP20", "Log5-OP35", "Log5-OP50"} {
		t := rep.table(variant, "ops", "p")
		var lastP, lastA uint64
		_, err := runFW(o, variant, func(done int, fw *fairywren.Cache) {
			mig := fw.Migration()
			dp := mig.PassiveRMW - lastP
			da := mig.ActiveRMW - lastA
			lastP, lastA = mig.PassiveRMW, mig.ActiveRMW
			p := 1.0
			if dp+da > 0 {
				p = float64(dp) / float64(dp+da)
			}
			t.row(fmt.Sprint(done), pct("%.1f", p))
		})
		if err != nil {
			return rep, err
		}
	}
	rep.Notes = []string{"Observation 4: p rises with the OP ratio (active migration vanishes at high OP)"}
	return rep, nil
}

func runSec32(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	fw, err := runFW(o, "Log5-OP5", nil)
	if err != nil {
		return rep, err
	}
	mig := fw.Migration()
	st := fw.Stats()

	// Model the same configuration with Eq. 6–8.
	avgObj := avgObjectBytes(st)
	model := wamodel.HierarchicalConfig{
		PageSize:        g.PageSize,
		ObjSize:         avgObj,
		LogPages:        fw.LogPages(),
		SetPages:        g.Zones*g.PagesPerZone - fw.LogPages(),
		OPRatio:         0.05,
		HotColdDivision: true,
	}
	p := mig.PassiveFraction()
	f2 := func(v float64) Cell { return num("%.2f", v) }
	t := rep.table("this run", "quantity", "theory", "measured")
	t.row("E(L_i) / mean passive batch (objects)", f2(model.ExpectedListLen()), f2(mig.PassiveCDF.Mean()))
	t.row("L2SWA(P)", f2(model.L2SWAPassive()), f2(float64(g.PageSize)/(mig.PassiveCDF.Mean()*avgObj)))
	t.row("p (passive fraction)", text(""), f2(p))
	t.row("total WA (Eq. 1 with p)", f2(model.TotalWA(1.0, p)), f2(st.ALWA()))

	// The same equations at the paper's own scale, where no run is possible.
	const paperPages, paperP = 360 << 30 / 4096, 0.25
	paper := wamodel.HierarchicalConfig{
		PageSize:        4096,
		ObjSize:         246,
		LogPages:        paperPages * 5 / 100,
		SetPages:        paperPages - paperPages*5/100,
		OPRatio:         0.05,
		HotColdDivision: true,
	}
	kg := paper
	kg.HotColdDivision = false
	t = rep.table("paper scale: 360 GB, Log5-OP5, 246 B objects, p = 0.25", "quantity", "theory")
	t.row("usable sets N'", num("%.0f", paper.UsableSets()))
	t.row("hash range (FW)", num("%.0f", paper.HashRange()))
	t.row("E(L_i) (objects)", f2(paper.ExpectedListLen()))
	t.row("L2SWA(P) (Eq. 6)", f2(paper.L2SWAPassive()))
	t.row("L2SWA(A)", f2(paper.L2SWAActive()))
	t.row("L2SWA(p) (Eq. 8)", f2(paper.L2SWA(paperP)))
	t.row("total WA (Eq. 1)", f2(paper.TotalWA(1.0, paperP)))
	t.row("Kangaroo L2SWA(P), no hot/cold division", f2(kg.L2SWAPassive()))
	return rep, nil
}

func avgObjectBytes(st cachelib.Stats) float64 {
	if st.Sets == 0 {
		return 246
	}
	return float64(st.LogicalBytes) / float64(st.Sets)
}
