package wamodel

import (
	"math"
	"testing"
)

// paperFW is the paper's evaluation configuration in §3.2 terms: 360 GB
// flash, Log/Set = 5%/95%, OP 5%, 4 KB pages, 246 B objects.
func paperFW() HierarchicalConfig {
	totalPages := 360 * 1024 * 1024 * 1024 / 4096
	return HierarchicalConfig{
		PageSize:        4096,
		ObjSize:         246,
		LogPages:        totalPages * 5 / 100,
		SetPages:        totalPages * 95 / 100,
		OPRatio:         0.05,
		HotColdDivision: true,
	}
}

func TestL2SWAPassiveMatchesPaper(t *testing.T) {
	// §3.2.1: theoretical L2SWA(P) ≈ 9 for Log5-OP5 (measured 8.5).
	got := paperFW().L2SWAPassive()
	if math.Abs(got-9.02) > 0.3 {
		t.Fatalf("L2SWA(P) = %v, paper computes ≈9", got)
	}
}

func TestL2SWAClosedForm(t *testing.T) {
	// Eq. 6: L2SWA(P) = (1−X)·N_Set / (2·N_Log) for FairyWREN.
	c := paperFW()
	closed := (1 - c.OPRatio) * float64(c.SetPages) / (2 * float64(c.LogPages))
	if math.Abs(c.L2SWAPassive()-closed) > 1e-9 {
		t.Fatalf("general form %v != closed form %v", c.L2SWAPassive(), closed)
	}
}

func TestL2SWAWithPassiveFraction(t *testing.T) {
	// §3.2.2: (2−p)·9 with p=0.25 gives 15.75 (measured 14.2).
	got := paperFW().L2SWA(0.25)
	if math.Abs(got-15.79) > 0.5 {
		t.Fatalf("L2SWA(p=0.25) = %v, paper computes ≈15.75", got)
	}
}

func TestTotalWAMatchesFW(t *testing.T) {
	// Eq. 1 with near-unit log fill: ≈1 + 15.75 ≈ 16.7; the paper's
	// measured total is 15.2 (theory slightly over-estimates).
	got := paperFW().TotalWA(1.0, 0.25)
	if got < 15 || got > 18 {
		t.Fatalf("total WA = %v, want ≈16.7", got)
	}
}

func TestKangarooHashRangeDoubles(t *testing.T) {
	fw := paperFW()
	kg := fw
	kg.HotColdDivision = false
	if math.Abs(kg.L2SWAPassive()-2*fw.L2SWAPassive()) > 1e-9 {
		t.Fatal("Kangaroo's L2SWA(P) should be exactly double FairyWREN's")
	}
}

func TestActiveIsTwicePassive(t *testing.T) {
	c := paperFW()
	if c.L2SWAActive() != 2*c.L2SWAPassive() {
		t.Fatal("Observation 3 violated in the model")
	}
	// p=1 (all passive) gives L2SWA(P); p=0 (all active) gives 2×.
	if c.L2SWA(1) != c.L2SWAPassive() || c.L2SWA(0) != c.L2SWAActive() {
		t.Fatal("Eq. 7 boundary cases wrong")
	}
}

func TestObservation2Directions(t *testing.T) {
	// Enlarging HLog or raising OP must reduce L2SWA(P).
	base := paperFW()
	bigger := base
	bigger.LogPages *= 4
	if bigger.L2SWAPassive() >= base.L2SWAPassive() {
		t.Fatal("larger HLog should lower L2SWA(P)")
	}
	moreOP := base
	moreOP.OPRatio = 0.5
	if moreOP.L2SWAPassive() >= base.L2SWAPassive() {
		t.Fatal("higher OP should lower L2SWA(P)")
	}
}

func TestNemoWA(t *testing.T) {
	// §4.2: 89.34% fill (64.13% new-object fill) ⇒ WA 1/0.6413 ≈ 1.56.
	wa, err := NemoWA(0.6413)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wa-1.559) > 0.01 {
		t.Fatalf("Nemo WA = %v, paper reports 1.56", wa)
	}
	if _, err := NemoWA(0); err == nil {
		t.Fatal("zero fill rate should error")
	}
	if _, err := NemoWA(1.5); err == nil {
		t.Fatal("fill rate > 1 should error")
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	rows := Table6(DefaultTable6())
	if len(rows) != 3 {
		t.Fatalf("Table 6 has %d rows", len(rows))
	}
	fw, naive, nemo := rows[0], rows[1], rows[2]
	if math.Abs(fw.Total-9.9) > 0.5 {
		t.Fatalf("FW total = %v bits/obj, paper says 9.9", fw.Total)
	}
	if math.Abs(naive.Total-30.4) > 0.5 {
		t.Fatalf("naive Nemo total = %v bits/obj, paper says 30.4", naive.Total)
	}
	if math.Abs(nemo.Total-8.3) > 0.3 {
		t.Fatalf("Nemo total = %v bits/obj, paper says 8.3", nemo.Total)
	}
	if nemo.Total >= fw.Total {
		t.Fatal("Nemo must beat FairyWREN on memory")
	}
}

func TestAppendixAInstantiation(t *testing.T) {
	cfg := PBFGCostConfig{NumSGs: 350, TargetObjsPerSet: 40, PageSize: 4096}
	pages1, objs1, tot1 := PBFGCost(cfg, 0.001)
	if pages1 != 7 {
		t.Fatalf("PBFG pages at 0.1%% = %v, Appendix A says 7", pages1)
	}
	if math.Abs(objs1-1.349) > 0.01 {
		t.Fatalf("object reads at 0.1%% = %v, Appendix A says 1+0.35", objs1)
	}
	pages2, objs2, tot2 := PBFGCost(cfg, 0.0001)
	if pages2 != 9 {
		t.Fatalf("PBFG pages at 0.01%% = %v, Appendix A says 9", pages2)
	}
	if math.Abs(objs2-1.0349) > 0.01 {
		t.Fatalf("object reads at 0.01%% = %v, Appendix A says 1+0.03", objs2)
	}
	// The paper's conclusion: the more accurate index costs MORE overall.
	if tot2 <= tot1 {
		t.Fatalf("0.01%% total %v should exceed 0.1%% total %v", tot2, tot1)
	}
}

func TestOptimalFPR(t *testing.T) {
	cfg := PBFGCostConfig{NumSGs: 350, TargetObjsPerSet: 40, PageSize: 4096}
	best, cost := OptimalFPR(cfg, nil)
	if cost <= 0 {
		t.Fatal("optimal cost must be positive")
	}
	// Given Appendix A, 0.1% must beat 0.01%; the scan should not pick
	// the most accurate candidate.
	if best == 0.0001 {
		t.Fatalf("optimizer picked the most accurate FPR (%v), contradicting Appendix A", best)
	}
}
