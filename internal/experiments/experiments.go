// Package experiments regenerates every table and figure in the paper's
// evaluation (§5) plus the §3.2 motivation measurements and the Appendix A
// model. Each experiment is registered by the paper's artifact ID (fig4,
// fig12a, tab6, ...) and prints the same rows or series the paper reports.
//
// All experiments run against a scaled-down simulated device (Options.Scale;
// `nemobench -exp <id> -scale ...`); the geometry ratios (log share, OP
// ratio, sets per SG relative to pool size) match Table 4, which §3.2 shows
// is what determines write amplification.
package experiments

import (
	"fmt"
	"io"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/fairywren"
	"nemo/internal/flashsim"
	"nemo/internal/kangaroo"
	"nemo/internal/logcache"
	"nemo/internal/setcache"
	"nemo/internal/trace"
	"nemo/internal/vtime"
)

// Options controls an experiment run.
type Options struct {
	// Scale selects the device/workload size: "small" (CI and benchmarks),
	// "medium" (default for cmd/nemobench), or "large".
	Scale string
	// Ops overrides the request count (0 = scale default).
	Ops int
	// Seed makes runs reproducible.
	Seed int64
	// Out receives the printed rows (defaults to io.Discard when nil).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale == "" {
		o.Scale = "medium"
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) error
}

// Registry lists every experiment in paper order.
var Registry []Experiment

func register(id, title string, run func(Options) error) {
	Registry = append(Registry, Experiment{ID: id, Title: title, Run: run})
}

// ByID returns the registered experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (see Registry)", id)
}

// geometry describes the scaled device used by an experiment.
type geometry struct {
	PageSize     int
	PagesPerZone int
	Zones        int
	Ops          int
}

func geometryFor(o Options) geometry {
	switch o.Scale {
	case "small":
		return geometry{PageSize: 4096, PagesPerZone: 32, Zones: 56, Ops: 700_000}
	case "large":
		return geometry{PageSize: 4096, PagesPerZone: 256, Zones: 288, Ops: 16_000_000}
	default: // medium
		return geometry{PageSize: 4096, PagesPerZone: 96, Zones: 120, Ops: 5_000_000}
	}
}

func (g geometry) ops(o Options) int {
	if o.Ops > 0 {
		return o.Ops
	}
	return g.Ops
}

func (g geometry) capacityBytes() int64 {
	return int64(g.PageSize) * int64(g.PagesPerZone) * int64(g.Zones)
}

// newDevice builds a device with the experiment geometry and a fresh clock.
func (g geometry) newDevice() device.Device {
	return flashsim.New(flashsim.Config{
		PageSize:     g.PageSize,
		PagesPerZone: g.PagesPerZone,
		Zones:        g.Zones,
		Channels:     8,
		Clock:        &vtime.Clock{},
	})
}

// workload builds the paper's default benchmark: the four Table 5 clusters
// interleaved, scaled so the total working set is ~3× device capacity.
// (The paper's WSS is ≈0.9× its 360 GB device, but its runs are weeks long;
// at simulation scale the extra pressure reaches steady-state eviction
// within the configured op budgets — §5.1's first trace criterion.)
func (g geometry) workload(seed int64) (trace.Stream, error) {
	wssPerCluster := g.capacityBytes() * 3 / 4
	return trace.DefaultInterleaved(wssPerCluster, seed)
}

// nemoEngine builds Nemo at Table 4's ratios: the whole device minus the
// index pool is the SG pool (OP < 1%).
func nemoEngine(dev device.Device, mutate func(*core.Config)) (*core.Cache, error) {
	dataZones := maxDataZones(dev.Zones(), 50)
	cfg := core.DefaultConfig(dev, dataZones)
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg)
}

// maxDataZones returns the largest SG pool leaving room for the index pool.
func maxDataZones(zones, sgsPerGroup int) int {
	d := zones - 3
	for d > 2 && d+core.IndexZonesFor(d, sgsPerGroup) > zones {
		d--
	}
	return d
}

// nemoSetup builds what one Nemo run starts from: a fresh device of
// geometry g, Nemo on it (nemoEngine's configuration, adjusted by mutate)
// and the standard workload stream. Experiments that replay in phases drive
// the triple themselves; the rest call runNemo.
func nemoSetup(g geometry, o Options, mutate func(*core.Config)) (device.Device, *core.Cache, trace.Stream, error) {
	dev := g.newDevice()
	nemo, err := nemoEngine(dev, mutate)
	if err != nil {
		return nil, nil, nil, err
	}
	stream, err := g.workload(o.Seed)
	return dev, nemo, stream, err
}

// runNemo replays the standard workload against one Nemo configuration and
// returns the engine with the replay's result.
func runNemo(g geometry, o Options, mutate func(*core.Config)) (*core.Cache, cachelib.ReplayResult, error) {
	dev, nemo, stream, err := nemoSetup(g, o, mutate)
	if err != nil {
		return nil, cachelib.ReplayResult{}, err
	}
	res, err := cachelib.Replay(nemo, stream, replayCfg(g, o, dev))
	return nemo, res, err
}

// fwSetup is nemoSetup for FairyWREN; cfg's zero ratios are Table 4's.
func fwSetup(g geometry, o Options, cfg fairywren.Config) (device.Device, *fairywren.Cache, trace.Stream, error) {
	cfg.Device = g.newDevice()
	fw, err := fairywren.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	stream, err := g.workload(o.Seed)
	return cfg.Device, fw, stream, err
}

// replayFW is runNemo for FairyWREN. (runFW, in fig_motivation.go, is the
// §3.2 loop instead: no clock, a callback per phase.)
func replayFW(g geometry, o Options, cfg fairywren.Config) (*fairywren.Cache, cachelib.ReplayResult, error) {
	dev, fw, stream, err := fwSetup(g, o, cfg)
	if err != nil {
		return nil, cachelib.ReplayResult{}, err
	}
	res, err := cachelib.Replay(fw, stream, replayCfg(g, o, dev))
	return fw, res, err
}

// replayCfg is the common replay configuration.
func replayCfg(g geometry, o Options, dev device.Device) cachelib.ReplayConfig {
	return cachelib.ReplayConfig{
		Ops:          g.ops(o),
		InterArrival: 10 * time.Microsecond,
		Clock:        dev.Clock(),
	}
}

// printCDF renders an IntCDF-style row set.
func printCDF(w io.Writer, label string, cdf []float64) {
	fmt.Fprintf(w, "%-28s", label)
	for i, p := range cdf {
		if i == len(cdf)-1 {
			fmt.Fprintf(w, " %d+:%5.1f%%", i, p*100)
		} else {
			fmt.Fprintf(w, " ≤%d:%5.1f%%", i, p*100)
		}
	}
	fmt.Fprintln(w)
}

func printSeries(w io.Writer, label string, xs, ys []float64, xfmt, yfmt string) {
	fmt.Fprintf(w, "%s\n", label)
	for i := range xs {
		fmt.Fprintf(w, "  "+xfmt+"  "+yfmt+"\n", xs[i], ys[i])
	}
}

// engineSet is the five Figure 12a engines on fresh devices, the baselines
// at their own defaults (Table 4).
type engineSet struct {
	Nemo *core.Cache
	Log  *logcache.Cache
	Set  *setcache.Cache
	FW   *fairywren.Cache
	KG   *kangaroo.Cache
}

func buildEngines(g geometry) (engineSet, []device.Device, error) {
	var es engineSet
	var devs []device.Device
	mk := func() device.Device {
		d := g.newDevice()
		devs = append(devs, d)
		return d
	}
	var err error
	if es.Nemo, err = nemoEngine(mk(), nil); err != nil {
		return es, nil, err
	}
	if es.Log, err = logcache.New(logcache.Config{Device: mk()}); err != nil {
		return es, nil, err
	}
	if es.Set, err = setcache.New(setcache.Config{Device: mk()}); err != nil {
		return es, nil, err
	}
	if es.FW, err = fairywren.New(fairywren.Config{Device: mk()}); err != nil {
		return es, nil, err
	}
	if es.KG, err = kangaroo.New(kangaroo.Config{Device: mk()}); err != nil {
		return es, nil, err
	}
	return es, devs, nil
}
