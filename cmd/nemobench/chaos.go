package main

import (
	"fmt"
	"strings"

	"nemo/internal/backend"
	"nemo/internal/chaos"
	"nemo/internal/experiments"
)

func cmdChaos(args []string) int {
	c := newCommand("chaos", "[flags]")
	scens := []chaos.Scenario{chaos.Scenarios()[0]}
	c.Func("scenario", "comma-separated scenario names, or all: write-outage, flaky-writes, slow-reads, zone-kill (default write-outage)", func(s string) error {
		if s == "all" {
			scens = chaos.Scenarios()
			return nil
		}
		scens = nil
		for _, name := range strings.Split(s, ",") {
			sc, err := chaos.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			scens = append(scens, sc)
		}
		return nil
	})
	shards := 2
	c.Func("shards", "engine shards (default 2)", func(s string) (err error) {
		shards, err = shardCount(s)
		return err
	})
	seed := c.Int64("seed", 1, "fault-plan seed")
	ops := c.Int("ops", 0, "requests per scenario (0 = 4000)")
	flushers := c.Int("flushers", 0, "background flusher goroutines (0 = flush inline: STORED means stored)")
	var device backend.Spec
	deviceFlag(c, &device)
	c.profileFlags()
	if _, st, ok := c.parse(args, 0); !ok {
		return st
	}
	return c.profiled(func() int {
		rep, err := runChaos(scens, chaos.Config{
			Seed:     uint64(*seed),
			Device:   device,
			Shards:   shards,
			Flushers: *flushers,
			Ops:      *ops,
		})
		return report("chaos", rep, err)
	})
}

// runChaos drives the chaos harness: for each scenario, serve a
// breaker-enabled engine over loopback, inject the scenario's fault plan
// under load, heal, and verify the stack recovers on its own. The report is
// the availability table, one row per scenario.
func runChaos(scens []chaos.Scenario, cfg chaos.Config) (experiments.Report, error) {
	rep := experiments.Report{Title: fmt.Sprintf("Chaos: device faults under a serving stack — device %v, %d shards, async=%v", cfg.Device, cfg.Shards, cfg.Flushers > 0)}
	t := &experiments.Table{Columns: []string{"scenario", "ops", "avail%", "sheds", "errs", "degraded", "deg_s", "recover_s", "injected", "retries"}}
	rep.Tables = append(rep.Tables, t)
	n := func(format string, v float64) experiments.Cell { return experiments.Cell{V: v, Format: format} }
	for _, s := range scens {
		cfg.Scenario = s
		res, err := chaos.Run(cfg)
		if err != nil {
			return rep, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		t.Rows = append(t.Rows, experiments.Row{Label: res.Scenario, Cells: []experiments.Cell{
			n("%.0f", float64(res.Ops)), n("%.2f", res.Availability*100),
			n("%.0f", float64(res.DegradedSheds)), n("%.0f", float64(res.OtherErrors)),
			n("%.0f", float64(res.DegradedEntered)), n("%.0f", float64(res.DegradedSeconds)),
			n("%.3f", res.RecoverySecs),
			n("%.0f", float64(res.InjectedWrites+res.InjectedReads)), n("%.0f", float64(res.WriteRetries)),
		}})
	}
	return rep, nil
}
