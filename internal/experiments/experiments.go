// Package experiments regenerates every table and figure in the paper's
// evaluation (§5) plus the §3.2 motivation measurements and the Appendix A
// model. Each experiment is registered by the paper's artifact ID (fig4,
// fig12a, tab6, ...) and returns a Report: the paper's reference values,
// tables of named columns over labelled rows whose cells keep their float64
// beside their format, and notes. Report.Print is the one text layout;
// fidelity_test.go asserts on the cells — the paper's values with
// tolerances, and where this reproduction departs from them.
//
// All experiments run against a scaled-down simulated device (Options.Scale;
// `nemobench exp <id> -scale ...`); the geometry ratios (log share, OP
// ratio, sets per SG relative to pool size) match Table 4, which §3.2 shows
// is what determines write amplification.
package experiments

import (
	"fmt"

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
}

func (o Options) withDefaults() Options {
	if o.Scale == "" {
		o.Scale = "medium"
	}
	return o
}

// Experiment is one reproducible paper artifact. headline names the one
// cell of its report that benchmarks record (Report.Headline).
type Experiment struct {
	ID       string
	Title    string
	headline Ref
	run      func(Options) (Report, error)
}

// Run executes the experiment with o's defaults resolved and returns its
// report, titled from the registry.
func (e Experiment) Run(o Options) (Report, error) {
	rep, err := e.run(o.withDefaults())
	rep.Title, rep.Headline = e.Title, e.headline
	return rep, err
}

// Registry lists every experiment, in the order `nemobench list` and `all` use.
var Registry = []Experiment{
	{"abl-sgsize", "Ablation: SG (zone) size at constant total capacity vs fill rate, WA, and read amplification", Ref{Col: "WA"}, runAblSGSize},
	{"abl-cooling", "Ablation: cooling period (fraction of capacity written between passes) vs writeback volume and miss ratio", Ref{Row: "10%", Col: "writebacks"}, runAblCooling},
	{"abl-fpr", "Ablation: Bloom FPR vs false-positive reads and index traffic (Appendix A measured)", Ref{Row: "0.10%", Col: "fp reads/get"}, runAblFPR},
	{"abl-skew", "Ablation: writeback benefit vs workload skew (Zipf α)", Ref{Row: "1.05", Col: "miss (W on)"}, runAblSkew},
	{"fig12a", "Figure 12a: steady-state write amplification of the five cache systems", Ref{Row: "Nemo", Col: "ALWA"}, runFig12a},
	{"fig12b", "Figure 12b: Nemo vs FairyWREN variants", Ref{Row: "Log20-OP5", Col: "WA"}, runFig12b},
	{"tab4", "Table 4: experimental parameters of the cache engines (scaled; ratios match the paper)", Ref{Row: "flash", Col: "Nemo"}, runTab4},
	{"fig8", "Figure 8: short-term hashed-key distribution skew (fill rate of remaining sets when the first set fills)", Ref{Table: "set size 4096 B", Row: "64MB-equiv", Col: "real mean fill"}, runFig8},
	{"fig17", "Figure 17: 'perfect' SG fill-rate breakdown (naive/B/P/B+P/B+P+W)", Ref{Row: "B+P+W", Col: "fill"}, runFig17},
	{"fig18", "Figure 18: flush-threshold (p_th) sweep — new objects per SG and WA", Ref{Row: "4096", Col: "WA"}, runFig18},
	{"fig19a", "Figure 19a: set access distribution (requests served by top-accessed sets)", Ref{Row: "cluster14", Col: "top30%"}, runFig19a},
	{"fig19b", "Figure 19b: PBFG miss ratio vs in-memory PBFG proportion", Ref{Row: "50%", Col: "miss ratio"}, runFig19b},
	{"fig13", "Figure 13: flash writes per (virtual) minute at steady state", Ref{Table: "intervals with flash writes", Row: "Nemo", Col: "active"}, runFig13},
	{"fig14", "Figure 14: WA trends with the number of trace operations", Ref{Table: "Nemo", Col: "WA"}, runFig14},
	{"fig15", "Figure 15: p50/p99/p9999 read latency over time, Nemo vs FW", Ref{Table: "Nemo", Col: "p99"}, runFig15},
	{"fig16", "Figure 16: miss-ratio trend, Nemo vs FW", Ref{Table: "final miss ratio", Row: "Nemo", Col: "miss"}, runFig16},
	{"fig4", "Figure 4: CDF of newly written objects per set write (passive migration)", Ref{Row: "Log5-OP5 (Steady)", Col: "mean batch"}, runFig4},
	{"fig5", "Figure 5: CDF of passive vs active migration batch sizes", Ref{Row: "Log5-OP5 (Passive)", Col: "mean batch"}, runFig5},
	{"fig6", "Figure 6: passive-migration fraction p vs trace operations by OP ratio", Ref{Table: "Log5-OP5", Col: "p"}, runFig6},
	{"sec32", "§3.2: theory vs practice for FairyWREN (Log5-OP5)", Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "measured"}, runSec32},
	{"tab3", "Table 3: Nemo configuration defaults", Ref{Row: "flushing threshold p_th", Col: "value"}, runTab3},
	{"tab5", "Table 5: characteristics of the (synthesized) Twitter traces, value sizes pre-scaled per §5.1", Ref{Row: "cluster14", Col: "obj mean"}, runTab5},
	{"tab6", "Table 6: metadata overhead comparison (bits per object)", Ref{Row: "Nemo", Col: "total"}, runTab6},
	{"sec55", "§5.5: read amplification and memory overhead, Nemo vs FW", Ref{Table: "flash reads per hit", Row: "Nemo / FW", Col: "value"}, runSec55},
	{"appA", "Appendix A: PBFG accuracy vs read-amplification trade-off", Ref{Table: "optimum by Eq. 11", Row: "optimal", Col: "FPR"}, runAppA},
}

// ByID returns the registered experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (`nemobench list` prints the IDs)", id)
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

// maxDataZones returns the largest SG pool leaving room for the index pool.
func maxDataZones(zones, sgsPerGroup int) int {
	d := zones - 3
	for d > 2 && d+core.IndexZonesFor(d, sgsPerGroup) > zones {
		d--
	}
	return d
}

// nemoOn builds one-shard Nemo at Table 4's ratios, adjusted by mutate: the
// whole device minus the index pool is the SG pool (OP < 1%). Per-shard
// diagnostics (the Readout's Model, the index-cache counters) are read off
// Shard(0).
func nemoOn(mutate func(*core.Config)) func(device.Device) (*core.Sharded, error) {
	return func(dev device.Device) (*core.Sharded, error) {
		cfg := core.DefaultConfig(dev, maxDataZones(dev.Zones(), 50))
		cfg.Shards = 1
		if mutate != nil {
			mutate(&cfg)
		}
		return core.NewSharded(cfg)
	}
}

// fwOn builds FairyWREN in the variant a §3.2 label names: "Log20-OP5" is a
// 20% HLog over a set tier with 5% over-provisioning (Table 4's default is
// Log5-OP5).
func fwOn(variant string) func(device.Device) (*fairywren.Cache, error) {
	var log, op int
	if _, err := fmt.Sscanf(variant, "Log%d-OP%d", &log, &op); err != nil {
		panic("experiments: bad FairyWREN variant " + variant)
	}
	return func(dev device.Device) (*fairywren.Cache, error) {
		return fairywren.New(fairywren.Config{Device: dev, LogRatio: float64(log) / 100, OPRatio: float64(op) / 100})
	}
}

// fiveEngines builds the Figure 12a systems in the paper's order, the
// baselines at their own defaults (Table 4).
var fiveEngines = []func(device.Device) (cachelib.Engine, error){
	func(d device.Device) (cachelib.Engine, error) { return nemoOn(nil)(d) },
	func(d device.Device) (cachelib.Engine, error) { return logcache.New(logcache.Config{Device: d}) },
	func(d device.Device) (cachelib.Engine, error) { return setcache.New(setcache.Config{Device: d}) },
	func(d device.Device) (cachelib.Engine, error) { return fairywren.New(fairywren.Config{Device: d}) },
	func(d device.Device) (cachelib.Engine, error) { return kangaroo.New(kangaroo.Config{Device: d}) },
}

// setup builds what one run starts from: a fresh device of geometry g, the
// engine mk makes on it and the standard workload stream. Experiments that
// replay in phases drive the triple themselves; the rest call replay.
func setup[E cachelib.Engine](g geometry, o Options, mk func(device.Device) (E, error)) (device.Device, E, trace.Stream, error) {
	dev := g.newDevice()
	e, err := mk(dev)
	if err != nil {
		return nil, e, nil, err
	}
	stream, err := g.workload(o.Seed)
	return dev, e, stream, err
}

// replay runs the standard workload against the engine mk makes and returns
// the engine (nil when mk failed) with the replay's result.
func replay[E cachelib.Engine](g geometry, o Options, mk func(device.Device) (E, error)) (E, cachelib.ReplayResult, error) {
	dev, e, stream, err := setup(g, o, mk)
	if err != nil {
		return e, cachelib.ReplayResult{}, err
	}
	res, err := cachelib.Replay(e, stream, replayCfg(g, o, dev))
	return e, res, err
}

// replayCfg is the common replay configuration (requests arrive at the
// replayer's default 10 µs spacing on the device's virtual clock).
func replayCfg(g geometry, o Options, dev device.Device) cachelib.ReplayConfig {
	return cachelib.ReplayConfig{
		Ops:   g.ops(o),
		Clock: dev.Clock(),
	}
}
