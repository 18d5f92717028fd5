package experiments

import (
	"fmt"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/fairywren"
	"nemo/internal/metrics"
	"nemo/internal/trace"
)

func init() {
	register("fig13", "Figure 13: flash writes per (virtual) minute at steady state", runFig13)
	register("fig14", "Figure 14: WA trends with the number of trace operations", runFig14)
	register("fig15", "Figure 15: p50/p99/p9999 read latency over time, Nemo vs FW", runFig15)
	register("fig16", "Figure 16: miss-ratio trend, Nemo vs FW", runFig16)
}

func runFig13(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 13 — flash writes per virtual minute (Nemo: occasional bursts; FW/KG: continuous)")
	es, devs, err := buildEngines(g)
	if err != nil {
		return err
	}
	for i, e := range []cachelib.Engine{es.Nemo, es.FW, es.KG} {
		dev := devs[map[int]int{0: 0, 1: 3, 2: 4}[i]]
		stream, err := g.workload(o.Seed)
		if err != nil {
			return err
		}
		res, err := cachelib.Replay(e, stream, replayCfg(g, o, dev))
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%s:\n", e.Name())
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
			mbPerMin := float64(db) / (1 << 20) / (float64(dt) / float64(time.Minute))
			intervals++
			if db > 0 {
				nonzero++
			}
			fmt.Fprintf(o.Out, "  t=%8.1fs  %10.1f MB/min\n", tp.VTime.Seconds(), mbPerMin)
		}
		fmt.Fprintf(o.Out, "  active intervals: %d/%d\n", nonzero, intervals)
	}
	return nil
}

func runFig14(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 14 — WA vs trace operations")

	_, res, err := runNemo(g, o, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "Nemo:")
	for _, tp := range res.Timeline {
		fmt.Fprintf(o.Out, "  %10d ops  WA=%6.2f\n", tp.Ops, tp.ALWA)
	}

	// FairyWREN variants.
	for _, cfg := range []struct {
		label    string
		logRatio float64
		opRatio  float64
	}{
		{"Log5-OP5", 0.05, 0.05},
		{"Log5-OP50", 0.05, 0.50},
		{"Log20-OP5", 0.20, 0.05},
	} {
		_, res, err := replayFW(g, o, fairywren.Config{LogRatio: cfg.logRatio, OPRatio: cfg.opRatio})
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "FW %s:\n", cfg.label)
		for _, tp := range res.Timeline {
			fmt.Fprintf(o.Out, "  %10d ops  WA=%6.2f\n", tp.Ops, tp.ALWA)
		}
	}
	return nil
}

func runFig15(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 15 — read latency percentiles over time (virtual)")
	// Twelve phases per engine, the latency histogram reset between them.
	phases := func(dev device.Device, e cachelib.Engine, stream trace.Stream) error {
		const intervals = 12
		per := g.ops(o) / intervals
		var req trace.Request
		fmt.Fprintf(o.Out, "%s:\n", e.Name())
		for iv := 0; iv < intervals; iv++ {
			e.ReadLatency().Reset()
			for i := 0; i < per; i++ {
				dev.Clock().Advance(10 * time.Microsecond)
				stream.Next(&req)
				if _, hit := e.Get(req.Key); !hit {
					if err := e.Set(req.Key, req.Value); err != nil {
						return err
					}
				}
			}
			s := e.ReadLatency().Snapshot()
			fmt.Fprintf(o.Out, "  t=%8.1fs  p50=%8s p99=%8s p9999=%8s\n",
				dev.Clock().Now().Seconds(), fmtDur(s.P50), fmtDur(s.P99), fmtDur(s.P9999))
		}
		return nil
	}
	dev, nemo, stream, err := nemoSetup(g, o, nil)
	if err != nil {
		return err
	}
	if err := phases(dev, nemo, stream); err != nil {
		return err
	}
	dev, fw, stream, err := fwSetup(g, o, fairywren.Config{})
	if err != nil {
		return err
	}
	if err := phases(dev, fw, stream); err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "(Paper: Nemo's tails stay flat; FW's p99/p9999 fluctuate due to continuous small writes.)")
	return nil
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
}

func runFig16(o Options) error {
	o = o.withDefaults()
	g := geometryFor(o)
	fmt.Fprintln(o.Out, "Figure 16 — miss-ratio trend (windowed)")
	report := func(res cachelib.ReplayResult) {
		fmt.Fprintf(o.Out, "%s: final miss ratio %.1f%%\n", res.Engine, res.Final.MissRatio()*100)
		printMissSeries(o, res.Miss)
	}
	_, res, err := runNemo(g, o, nil)
	if err != nil {
		return err
	}
	report(res)
	if _, res, err = replayFW(g, o, fairywren.Config{}); err != nil {
		return err
	}
	report(res)
	return nil
}

func printMissSeries(o Options, s *metrics.Series) {
	step := s.Len() / 16
	if step < 1 {
		step = 1
	}
	for i := 0; i < s.Len(); i += step {
		fmt.Fprintf(o.Out, "  %10.0f ops  miss=%5.1f%%\n", s.X[i], s.Y[i]*100)
	}
}
