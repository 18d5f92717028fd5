package experiments

import (
	"fmt"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/fairywren"
	"nemo/internal/metrics"
)

func runFig13(o Options) (Report, error) {
	rep := Report{Paper: "Nemo writes in occasional bursts; FW and KG continuously"}
	g := geometryFor(o)
	active := rep.table("intervals with flash writes", "engine", "active", "of")
	for _, i := range []int{0, 3, 4} { // Nemo, FW, KG
		e, res, err := replay(g, o, fiveEngines[i])
		if err != nil {
			return rep, err
		}
		t := rep.table(e.Name(), "t", "MB/min")
		var lastBytes uint64
		var lastT time.Duration
		nonzero, intervals := 0, 0
		for _, tp := range res.Timeline {
			db := tp.FlashBytesWritten - lastBytes
			dt := tp.VTime - lastT
			lastBytes, lastT = tp.FlashBytesWritten, tp.VTime
			if dt <= 0 {
				continue
			}
			intervals++
			if db > 0 {
				nonzero++
			}
			t.row(fmt.Sprintf("%.1fs", tp.VTime.Seconds()), num("%.1f", float64(db)/(1<<20)/(float64(dt)/float64(time.Minute))))
		}
		active.row(e.Name(), count(nonzero), count(intervals))
	}
	return rep, nil
}

func runFig14(o Options) (Report, error) {
	var rep Report
	g := geometryFor(o)
	series := func(name string, res cachelib.ReplayResult) {
		t := rep.table(name, "ops", "WA")
		for _, tp := range res.Timeline {
			t.row(fmt.Sprint(tp.Ops), num("%.2f", tp.ALWA))
		}
	}
	_, res, err := replay(g, o, nemoOn(nil))
	if err != nil {
		return rep, err
	}
	series("Nemo", res)
	for _, variant := range []string{"Log5-OP5", "Log5-OP50", "Log20-OP5"} {
		_, res, err := replay(g, o, fwOn(variant))
		if err != nil {
			return rep, err
		}
		series("FW "+variant, res)
	}
	return rep, nil
}

func runFig15(o Options) (Report, error) {
	rep := Report{Paper: "Nemo's tails stay flat; FW's p99/p9999 fluctuate due to continuous small writes"}
	g := geometryFor(o)
	us := func(d time.Duration) Cell { return num("%.0fµs", float64(d)/float64(time.Microsecond)) }
	for _, i := range []int{0, 3} { // Nemo, FW
		dev, e, stream, err := setup(g, o, fiveEngines[i])
		if err != nil {
			return rep, err
		}
		// Twelve phases, the latency histogram reset between them. Each
		// engine records its own: one-shard Nemo's is its shard's.
		const phases = 12
		cfg := replayCfg(g, o, dev)
		cfg.Ops /= phases
		var hist *metrics.Histogram
		switch e := e.(type) {
		case *core.Sharded:
			hist = e.Shard(0).ReadLatency()
		case *fairywren.Cache:
			hist = e.ReadLatency()
		}
		t := rep.table(e.Name(), "t (virtual)", "p50", "p99", "p9999")
		for range phases {
			hist.Reset()
			if _, err := cachelib.Replay(e, stream, cfg); err != nil {
				return rep, err
			}
			s := hist.Snapshot()
			t.row(fmt.Sprintf("%.1fs", dev.Clock().Now().Seconds()), us(s.P50), us(s.P99), us(s.P9999))
		}
	}
	return rep, nil
}

func runFig16(o Options) (Report, error) {
	var rep Report
	final := rep.table("final miss ratio", "engine", "miss")
	for _, i := range []int{0, 3} { // Nemo, FW
		_, res, err := replay(geometryFor(o), o, fiveEngines[i])
		if err != nil {
			return rep, err
		}
		final.row(res.Engine, pct("%.1f", res.Final.MissRatio()))
		t := rep.table(res.Engine+" (windowed)", "ops", "miss")
		for i := 0; i < res.Miss.Len(); i += max(res.Miss.Len()/16, 1) {
			t.row(fmt.Sprintf("%.0f", res.Miss.X[i]), pct("%.1f", res.Miss.Y[i]))
		}
	}
	return rep, nil
}
