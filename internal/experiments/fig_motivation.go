package experiments

import (
	"fmt"

	"nemo/internal/cachelib"
	"nemo/internal/fairywren"
	"nemo/internal/trace"
	"nemo/internal/wamodel"
)

func init() {
	register("fig4", "Figure 4: CDF of newly written objects per set write (passive migration)", runFig4)
	register("fig5", "Figure 5: CDF of passive vs active migration batch sizes", runFig5)
	register("fig6", "Figure 6: passive-migration fraction p vs trace operations by OP ratio", runFig6)
	register("sec32", "§3.2: L2SWA theory vs practice for FairyWREN", runSec32)
}

// runFW replays the standard workload against one FairyWREN configuration,
// invoking phase at every sample point.
func runFW(o Options, logRatio, opRatio float64, phase func(done int, fw *fairywren.Cache)) (*fairywren.Cache, error) {
	g := geometryFor(o)
	_, fw, stream, err := fwSetup(g, o, fairywren.Config{LogRatio: logRatio, OPRatio: opRatio})
	if err != nil {
		return nil, err
	}
	ops := g.ops(o)
	chunk := ops / 32
	if chunk < 1 {
		chunk = 1
	}
	var req trace.Request
	for done := 0; done < ops; {
		n := chunk
		if done+n > ops {
			n = ops - done
		}
		for i := 0; i < n; i++ {
			stream.Next(&req)
			if _, hit := fw.Get(req.Key); !hit {
				if err := fw.Set(req.Key, req.Value); err != nil {
					return nil, err
				}
			}
		}
		done += n
		if phase != nil {
			phase(done, fw)
		}
	}
	return fw, nil
}

func runFig4(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 4 — passive object migration: newly written objects per set write")

	// Log5-OP5 with an early/steady phase split at the first active
	// migration (GC), as in the paper.
	var earlyCDF []float64
	split := false
	fw, err := runFW(o, 0.05, 0.05, func(done int, fw *fairywren.Cache) {
		if !split && fw.Migration().ActiveRMW > 0 {
			earlyCDF = fw.Migration().PassiveCDF.CDF()
			fw.ResetMigrationCDFs()
			split = true
		}
	})
	if err != nil {
		return err
	}
	if earlyCDF != nil {
		printCDF(o.Out, "Log5-OP5 (Early)", earlyCDF)
	} else {
		printCDF(o.Out, "Log5-OP5 (Early=all, no GC)", fw.Migration().PassiveCDF.CDF())
	}
	printCDF(o.Out, "Log5-OP5 (Steady)", fw.Migration().PassiveCDF.CDF())

	for _, cfg := range []struct {
		label    string
		logRatio float64
		opRatio  float64
	}{
		{"Log20-OP5", 0.20, 0.05},
		{"Log5-OP50", 0.05, 0.50},
	} {
		fw, err := runFW(o, cfg.logRatio, cfg.opRatio, nil)
		if err != nil {
			return err
		}
		printCDF(o.Out, cfg.label, fw.Migration().PassiveCDF.CDF())
		fmt.Fprintf(o.Out, "%-28s mean batch = %.2f objects\n", "", fw.Migration().PassiveCDF.Mean())
	}
	return nil
}

func runFig5(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 5 — passive vs active migration batch-size CDFs")
	for _, cfg := range []struct {
		label    string
		logRatio float64
	}{
		{"Log5-OP5", 0.05},
		{"Log10-OP5", 0.10},
	} {
		fw, err := runFW(o, cfg.logRatio, 0.05, nil)
		if err != nil {
			return err
		}
		mig := fw.Migration()
		printCDF(o.Out, cfg.label+" (Passive)", mig.PassiveCDF.CDF())
		printCDF(o.Out, cfg.label+" (Active)", mig.ActiveCDF.CDF())
		fmt.Fprintf(o.Out, "%-28s passive mean %.2f, active mean %.2f (Observation 3: ≈2× gap)\n",
			"", mig.PassiveCDF.Mean(), mig.ActiveCDF.Mean())
	}
	return nil
}

func runFig6(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 6 — passive-migration fraction p vs trace operations")
	for _, op := range []float64{0.05, 0.20, 0.35, 0.50} {
		var xs, ys []float64
		var lastP, lastA uint64
		_, err := runFW(o, 0.05, op, func(done int, fw *fairywren.Cache) {
			mig := fw.Migration()
			dp := mig.PassiveRMW - lastP
			da := mig.ActiveRMW - lastA
			lastP, lastA = mig.PassiveRMW, mig.ActiveRMW
			p := 1.0
			if dp+da > 0 {
				p = float64(dp) / float64(dp+da)
			}
			xs = append(xs, float64(done))
			ys = append(ys, p*100)
		})
		if err != nil {
			return err
		}
		printSeries(o.Out, fmt.Sprintf("Log5-OP%d (p %%):", int(op*100)), xs, ys, "%12.0f ops", "p=%6.1f%%")
	}
	fmt.Fprintln(o.Out, "Observation 4: p rises with the OP ratio (active migration vanishes at high OP)")
	return nil
}

func runSec32(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fw, err := runFW(o, 0.05, 0.05, nil)
	if err != nil {
		return err
	}
	mig := fw.Migration()
	st := fw.Stats()

	// Model the same configuration with Eq. 6–8.
	setPages := g.Zones*g.PagesPerZone - fw.LogPages()
	avgObj := avgObjectBytes(st)
	model := wamodel.HierarchicalConfig{
		PageSize:        g.PageSize,
		ObjSize:         avgObj,
		LogPages:        fw.LogPages(),
		SetPages:        setPages,
		OPRatio:         0.05,
		HotColdDivision: true,
	}
	p := mig.PassiveFraction()
	measuredL2P := float64(g.PageSize) / (mig.PassiveCDF.Mean() * avgObj)

	fmt.Fprintln(o.Out, "§3.2 theory vs practice (FairyWREN, Log5-OP5)")
	fmt.Fprintf(o.Out, "  E(L_i) theory        : %8.2f objects\n", model.ExpectedListLen())
	fmt.Fprintf(o.Out, "  mean passive batch   : %8.2f objects (measured)\n", mig.PassiveCDF.Mean())
	fmt.Fprintf(o.Out, "  L2SWA(P) theory      : %8.2f\n", model.L2SWAPassive())
	fmt.Fprintf(o.Out, "  L2SWA(P) measured    : %8.2f\n", measuredL2P)
	fmt.Fprintf(o.Out, "  p (passive fraction) : %8.2f\n", p)
	fmt.Fprintf(o.Out, "  total WA theory      : %8.2f  (Eq. 1 with p)\n", model.TotalWA(1.0, p))
	fmt.Fprintf(o.Out, "  total WA measured    : %8.2f\n", st.ALWA())
	return nil
}

func avgObjectBytes(st cachelib.Stats) float64 {
	if st.Sets == 0 {
		return 246
	}
	return float64(st.LogicalBytes) / float64(st.Sets)
}
