// Command benchmark is the repository's benchmark: four closed-loop
// workloads against the memcached front end, the sharded engine and the
// file-backed device, every reply verified, every metric printed by name
// with its unit. See README.md in this directory.
//
// The pipeline's form runs one workload in one mode and ends with one JSON
// line:
//
//	go run ./benchmark --workload get_fits --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs every workload in both modes and, with -out,
// writes the result set that -diff compares:
//
//	go run ./benchmark -out run1.json
//	go run ./benchmark -diff run1.json run2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the pipeline's JSON line (default: every workload, both modes)")
		seed    = flag.Int64("seed", 1, "workload seed: every connection's stream derives from (seed, workload, connection)")
		seconds = flag.Int("seconds", 15, "timed-window length: the fixed op count is the workload's per-second constant times this")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics with both decorators in place")
		dir     = flag.String("dir", ".bench_build", "directory for device images and span files (created if missing)")
		out     = flag.String("out", "", "without -workload: write the result set to this file")
		commit  = flag.String("commit", "unknown", "commit recorded in the -out file")
		diff    = flag.Bool("diff", false, "compare two -out files given as arguments; exit 1 if any end-to-end metric is worse beyond its bound")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -diff takes two result files")
			return 2
		}
		return diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		r, err := measure(ctx, wl, *seed, *seconds, *trace == 1, *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(os.Stdout, r)
		printPipelineLine(os.Stdout, r)
		return 0
	}

	set := resultSet{
		Host:    hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: *commit},
		Seed:    *seed,
		Seconds: *seconds,
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := measure(ctx, wl, *seed, *seconds, traced, *dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printResult(os.Stdout, r)
			set.Results = append(set.Results, r)
		}
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, r := range set.Results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// measure runs one workload in one mode on the paper-scale system and checks
// that every metric of that mode was measured.
func measure(ctx context.Context, wl workload, seed int64, seconds int, traced bool, dir string) (*result, error) {
	cfg := runConfig{
		wl: wl, sut: paperSUT, seed: seed,
		iters:  wl.ItersPerSec * seconds / nConns,
		setups: 3, // setup_s is their median
		base:   dir,

		censusKeys: censusKeys, restartKeys: restartKeys,
	}
	if !traced {
		r, err := measureEndToEnd(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		return r, r.checkComplete(endToEnd)
	}
	cfg.iters /= tracedShare
	r, err := measurePerLayer(ctx, cfg, filepath.Join(dir, "spans-"+wl.Name+".tsv"))
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", wl.Name, err)
	}
	return r, r.checkComplete(perLayer)
}

func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of r by name with its unit.
func printResult(w io.Writer, r *result) {
	mode := "untraced, end-to-end"
	if r.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): window %.2f s, %d commands attempted, %d failed, %d wrong bytes; samples get %d set %d\n",
		r.Workload, mode, r.WindowS, r.Attempted, r.Failed, r.Wrong, r.Samples["get"], r.Samples["set"])
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
}

// printPipelineLine prints the one JSON object the pipeline reads.
func printPipelineLine(w io.Writer, r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.defs() {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}
