// Command nemobench regenerates the paper's tables and figures against the
// simulated flash device.
//
// Usage:
//
//	nemobench -list
//	nemobench -exp fig12a [-scale small|medium|large] [-ops N] [-seed S]
//	nemobench -all [-scale medium] [-ops N]
//	nemobench -compare [-shards 1,2,4,8] [-engines nemo,log,set,kg,fw]
//	          [-workers K] [-ops N] [-seed S] [-batch B] [-async] [-flushers K]
//	          [-setfrac F] [-delfrac F] [-parallel] [-notime]
//	          [-scale small|medium|large] [-device file:<path>]
//	nemobench -chaos [-scenario write-outage,flaky-writes|all] [-shards 2]
//	          [-conns K] [-ops N] [-async -flushers K] [-seed S]
//	          [-device file:<path>] [-json BENCH_chaos.json]
//	nemobench ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -compare runs the cross-engine comparison harness: one materialized mixed
// trace replayed through all five engines, each behind the one sharded
// facade (cachelib.ShardedEngine), at each shard count (total cache
// capacity held constant), printing the Figure 12/15-style quality and
// throughput table. -engines filters the set (-engines nemo is the
// functional smoke of the sharded engine alone), -batch drives the
// engines' batch calls (per-shard GetMany/SetMany sub-batches), -async
// routes fills through SetAsync and a -flushers-sized background flush pool
// (watch the setp99 column drop), -setfrac/-delfrac set the fraction of the
// trace rewritten into explicit SET and DELETE operations (0 0 = the
// pure-GET demand-fill trace), -parallel replays the engines of a shard
// count concurrently, and -notime drops the wall-clock columns so the table
// is byte-deterministic.
//
// -chaos runs the fault-injection harness: each named scenario (a seeded
// device fault plan — error rates, added latency, fail-N-then-recover,
// per-zone kills) is armed against a breaker-enabled engine serving real
// loopback clients. The table and BENCH_chaos.json report availability
// (served ops %), degraded sheds, breaker trips and degraded-window
// seconds, and the measured heal-to-recovery time; a scenario the stack
// cannot recover from fails the run.
//
// Each experiment returns the rows or series of the corresponding paper
// artifact as an experiments.Report, printed here. -all runs every
// registered experiment even when one fails: each failure is printed as it
// happens, and the run ends with the failed IDs and exit status 1 (0 when
// all pass). Wall-clock performance is not measured here: the repository's
// benchmark is benchmark/ (see benchmark/README.md and BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nemo/internal/backend"
	"nemo/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run holds main's body so profile teardown survives every exit path.
func run() int {
	var (
		exp       = flag.String("exp", "", "experiment ID to run (see -list)")
		all       = flag.Bool("all", false, "run every registered experiment")
		list      = flag.Bool("list", false, "list experiments")
		scale     = flag.String("scale", "medium", "device/workload scale: small, medium, large")
		ops       = flag.Int("ops", 0, "override request count (0 = scale default)")
		seed      = flag.Int64("seed", 1, "workload seed")
		shards    = flag.String("shards", "1,2,4,8", "comma-separated shard counts for -compare (-chaos takes the first)")
		workers   = flag.Int("workers", 0, "-compare: replay worker goroutines (0 = one per shard)")
		batch     = flag.Int("batch", 0, "-compare: per-shard batch size (<=1 = unbatched)")
		async     = flag.Bool("async", false, "-compare/-chaos: fills via SetAsync + background flusher pool")
		flushers  = flag.Int("flushers", 2, "background flusher goroutines for -compare/-chaos with -async")
		setFrac   = flag.Float64("setfrac", 0.1, "-compare: fraction of requests rewritten to explicit SETs")
		delFrac   = flag.Float64("delfrac", 0.02, "-compare: fraction of requests rewritten to DELETEs")
		compare   = flag.Bool("compare", false, "run the cross-engine sharded comparison harness")
		engines   = flag.String("engines", "", "-compare: comma-separated engine filter (nemo,log,set,kg,fw; empty = all)")
		parallel  = flag.Bool("parallel", false, "-compare: replay the engines of one shard count concurrently")
		noTime    = flag.Bool("notime", false, "-compare: omit wall-clock columns (byte-deterministic table)")
		chaosRun  = flag.Bool("chaos", false, "run the chaos-injection harness: fault scenarios against the breaker-enabled serving stack")
		scenarios = flag.String("scenario", "write-outage", "-chaos: comma-separated scenario names, or all (write-outage, flaky-writes, slow-reads, zone-kill)")
		conns     = flag.Int("conns", 4, "-chaos: client connections")
		pipelineN = flag.Int("pipeline", 8, "-chaos: requests per pipelined batch")
		deviceStr = flag.String("device", "sim", "device backend for -compare/-chaos: sim, or file:<path> (file-backed real device, measured latencies)")
		jsonOut   = flag.String("json", "BENCH_chaos.json", "-chaos: machine-readable output path (pass -json '' for table-only output)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	deviceSpec, err := backend.Parse(*deviceStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *chaosRun {
		// -shards is a list flag shared with -compare; chaos runs one engine
		// per scenario, so it takes the first count.
		shardCounts, err := parseShardList(*shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		err = runChaos(os.Stdout, chaosOptions{
			scenarios: *scenarios,
			seed:      *seed,
			shards:    shardCounts[0],
			flushers:  *flushers,
			async:     *async,
			conns:     *conns,
			ops:       *ops,
			pipeline:  *pipelineN,
			device:    deviceSpec,
			jsonPath:  *jsonOut,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *compare {
		shardCounts, err := parseShardList(*shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		var engineKeys []string
		if s := strings.TrimSpace(*engines); s != "" {
			engineKeys = strings.Split(s, ",")
		}
		err = experiments.RunCompare(experiments.CompareConfig{
			Scale:    *scale,
			Shards:   shardCounts,
			Workers:  *workers,
			Ops:      *ops,
			Seed:     *seed,
			Batch:    *batch,
			Async:    *async,
			Flushers: *flushers,
			SetFrac:  *setFrac,
			DelFrac:  *delFrac,
			Engines:  engineKeys,
			Parallel: *parallel,
			HostTime: !*noTime,
			Device:   deviceSpec,
			Out:      os.Stdout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	opts := experiments.Options{Scale: *scale, Ops: *ops, Seed: *seed}
	switch {
	case *all:
		var failed []string
		for _, e := range experiments.Registry {
			fmt.Printf("=== %s ===\n", e.ID)
			start := time.Now()
			rep, err := e.Run(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
				failed = append(failed, e.ID)
				continue
			}
			rep.Print(os.Stdout)
			fmt.Printf("--- %s done in %v ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d experiments failed: %s\n", len(failed), len(experiments.Registry), strings.Join(failed, " "))
			return 1
		}
	case *exp != "":
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		rep.Print(os.Stdout)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// parseShardList parses the -shards flag: comma-separated positive counts.
func parseShardList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty shard list")
	}
	return out, nil
}
