package experiments

import "nemo/internal/core"

func runFig12a(o Options) (Report, error) {
	rep := Report{Paper: "Nemo 1.56, Log 1.08, FW 15.2, Set 16.31, KG 55.59"}
	g := geometryFor(o)
	t := rep.table("", "engine", "ALWA", "totalWA", "mem b/obj", "miss", "readamp B/hit")
	for _, mk := range fiveEngines {
		e, res, err := replay(g, o, mk)
		if err != nil {
			return rep, err
		}
		st := res.Final
		wa, memBits := st.ALWA(), 0.0
		if nemo, ok := e.(*core.Sharded); ok {
			// Nemo's memory column uses the scale-independent components
			// (Bloom + hotness bits). The index-group buffer is a fixed
			// cost that amortizes to 0.8 bits/obj at paper scale but
			// dominates tiny simulated pools; sec55 prints the full
			// breakdown.
			m := nemo.Shard(0).Readout().Model
			wa, memBits = nemo.Readout().PaperWA(), m.BloomBitsPerObj+m.HotBitsPerObj
		} else {
			memBits = e.(interface{ MemoryBitsPerObject() float64 }).MemoryBitsPerObject()
		}
		t.row(e.Name(), num("%.2f", wa), num("%.2f", st.TotalWA()), num("%.1f", memBits),
			pct("%.1f", st.MissRatio()), num("%.0f", st.ReadAmplification()))
	}
	return rep, nil
}

func runFig12b(o Options) (Report, error) {
	rep := Report{Paper: "Nemo 1.56, OP20 9.29, OP50 6.56, Log20 4.12"}
	t := rep.table("", "system", "WA", "p")
	nemo, _, err := replay(geometryFor(o), o, nemoOn(nil)) // Nemo at defaults
	if err != nil {
		return rep, err
	}
	t.row("Nemo", num("%.2f", nemo.Readout().PaperWA()))
	for _, variant := range []string{"Log5-OP20", "Log5-OP50", "Log20-OP5"} {
		fw, err := runFW(o, variant, nil)
		if err != nil {
			return rep, err
		}
		t.row(variant, num("%.2f", fw.Stats().ALWA()), num("%.2f", fw.Migration().PassiveFraction()))
	}
	return rep, nil
}

func runTab4(o Options) (Report, error) {
	var rep Report
	mb := num("%.0fMB", float64(geometryFor(o).capacityBytes())/(1<<20))
	t := rep.table("", "param", "Nemo", "Log", "Set", "FW/KG")
	t.row("flash", mb, mb, mb, mb)
	t.row("OP", text("<1%"), text("<1%"), text("50%"), text("5%"))
	t.row("log share", text("0%"), text("100%"), text("0%"), text("5%"))
	t.row("set share", text("100%"), text("0%"), text("100%"), text("95%"))
	return rep, nil
}
