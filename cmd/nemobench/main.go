// Command nemobench regenerates the paper's tables and figures, compares
// the five cache engines on one trace, and injects device faults under a
// serving stack.
//
// Usage:
//
//	nemobench list
//	nemobench exp <id> [-scale small|medium|large] [-ops N] [-seed S]
//	nemobench all [-scale medium] [-ops N] [-seed S]
//	nemobench compare [-shards 1,2,4,8] [-engines nemo,log,set,kg,fw]
//	          [-ops N] [-seed S] [-flushers K]
//	          [-setfrac F] [-delfrac F] [-scale small|medium|large]
//	          [-device file:<path>]
//	nemobench chaos [-scenario write-outage,flaky-writes|all] [-shards 2]
//	          [-ops N] [-flushers K] [-seed S] [-device file:<path>]
//	nemobench <exp|all|compare|chaos> ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Every result is an experiments.Report printed by Report.Print; `nemobench
// <command> -h` describes each flag.
//
// exp runs one registered experiment: the rows or series of the corresponding
// paper artifact. all runs every one even when some fail: each failure is
// printed as it happens, and the run ends with the failed IDs and status 1.
//
// compare replays one materialized mixed trace through all five engines,
// each behind the one sharded facade (cachelib.ShardedEngine), at each shard
// count with total capacity held constant: one Figure 12/16-style quality
// table per count (hit ratio, write amplification, error counts), the same
// bytes on every run and on either device backend. -engines nemo is the
// functional smoke of the sharded engine alone; -setfrac 0 -delfrac 0 is the
// pure-GET demand-fill trace. The replay runs one goroutine per shard and
// makes one engine call per request.
//
// compare and chaos send every SET through SetAsync; -flushers alone decides
// when Nemo flushes. -flushers 0, the default, flushes inline on the inserting
// goroutine, so a SET that returns (chaos: a STORED reply) has survived any
// flush it ran; -flushers K hands full SGs to a pool of K goroutines.
//
// chaos arms each named scenario (a seeded device fault plan — error rates,
// added latency, fail-N-then-recover, per-zone kills) against a
// breaker-enabled engine serving real loopback clients, and reports
// availability, degraded sheds, breaker trips and the heal-to-recovery time;
// a scenario the stack cannot recover from fails the run.
//
// Exit status: 0 on success, 1 when a run failed, 2 for a usage error
// (unknown command, flag, experiment ID, engine key, scenario or scale, a
// bad -shards value, a negative -ops), printed with the command's usage.
// Wall-clock performance is not measured here: that is benchmark/
// (benchmark/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"nemo/internal/backend"
	"nemo/internal/experiments"
)

const usage = `usage: nemobench <command> [flags]

  list       list the experiment IDs
  exp <id>   run one experiment (a table or figure of the paper)
  all        run every experiment; exit 1 naming the ones that failed
  compare    replay one trace through the five engines at each shard count
  chaos      fault scenarios against the breaker-enabled serving stack

nemobench <command> -h prints the command's flags.
`

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	switch args[0] {
	case "list":
		return cmdList(args[1:])
	case "exp":
		return cmdExp(args[1:])
	case "all":
		return cmdAll(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "-h", "-help", "--help":
		fmt.Print(usage)
		return 0
	}
	fmt.Fprintf(os.Stderr, "nemobench: unknown command %q\n%s", args[0], usage)
	return 2
}

// command is one subcommand's flag set, with the profile flags every
// running command takes.
type command struct {
	*flag.FlagSet
	cpuProf, memProf string
}

func newCommand(name, synopsis string) *command {
	c := &command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	c.Usage = func() {
		fmt.Fprintf(c.Output(), "usage: nemobench %s %s\n", name, synopsis)
		c.PrintDefaults()
	}
	return c
}

func (c *command) profileFlags() {
	c.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	c.StringVar(&c.memProf, "memprofile", "", "write a heap profile at exit to this file")
}

// parse parses args, flags and positional arguments in any order, and wants
// exactly `positional` of the latter. When ok is false the command ends with
// status: 0 after -h, 2 after a usage error (already printed, with the usage).
func (c *command) parse(args []string, positional int) (pos []string, status int, ok bool) {
	for {
		if err := c.Parse(args); errors.Is(err, flag.ErrHelp) {
			return nil, 0, false
		} else if err != nil {
			return nil, 2, false
		}
		if c.NArg() == 0 {
			break
		}
		pos, args = append(pos, c.Arg(0)), c.Args()[1:]
	}
	if len(pos) != positional {
		return nil, c.usageError(fmt.Errorf("%s takes %d positional arguments, got %q", c.Name(), positional, pos)), false
	}
	return pos, 0, true
}

func (c *command) usageError(err error) int {
	fmt.Fprintln(c.Output(), err)
	c.Usage()
	return 2
}

// profiled runs body between profile setup and teardown and returns its
// exit status.
func (c *command) profiled(body func() int) int {
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
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
	if c.memProf != "" {
		defer func() {
			f, err := os.Create(c.memProf)
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
	return body()
}

// report prints what a run returned — the one place a result table is
// written — or, for a failed run, "<what> failed: …" and exit status 1.
func report(what string, rep experiments.Report, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", what, err)
		return 1
	}
	rep.Print(os.Stdout)
	return 0
}

// workloadFlags registers the flags exp, all and compare share; an unknown
// scale and a negative request count are usage errors.
func workloadFlags(c *command, scale *string, ops *int, seed *int64) {
	*scale = "medium"
	c.Func("scale", "device/workload scale: small, medium, large (default medium)", func(s string) error {
		if s != "small" && s != "medium" && s != "large" {
			return fmt.Errorf("unknown scale %q (small, medium or large)", s)
		}
		*scale = s
		return nil
	})
	c.Func("ops", "override request count (0 = scale default)", func(s string) (err error) {
		if *ops, err = strconv.Atoi(s); err == nil && *ops < 0 {
			err = fmt.Errorf("negative request count %d", *ops)
		}
		return err
	})
	c.Int64Var(seed, "seed", 1, "workload seed")
}

// deviceFlag registers -device (the zero Spec is the simulator); a value
// backend.Parse rejects is a usage error.
func deviceFlag(c *command, spec *backend.Spec) {
	c.Func("device", "device backend: sim, or file:<path> (file-backed real device, measured latencies)", func(s string) (err error) {
		*spec, err = backend.Parse(s)
		return err
	})
}

func cmdList(args []string) int {
	c := newCommand("list", "")
	if _, st, ok := c.parse(args, 0); !ok {
		return st
	}
	for _, e := range experiments.Registry {
		fmt.Printf("%-8s %s\n", e.ID, e.Title)
	}
	return 0
}

func cmdExp(args []string) int {
	c := newCommand("exp", "<id> [flags]   (nemobench list prints the IDs)")
	var opts experiments.Options
	workloadFlags(c, &opts.Scale, &opts.Ops, &opts.Seed)
	c.profileFlags()
	pos, st, ok := c.parse(args, 1)
	if !ok {
		return st
	}
	e, err := experiments.ByID(pos[0])
	if err != nil {
		return c.usageError(err)
	}
	return c.profiled(func() int {
		rep, err := e.Run(opts)
		return report(e.ID, rep, err)
	})
}

func cmdAll(args []string) int {
	c := newCommand("all", "[flags]")
	var opts experiments.Options
	workloadFlags(c, &opts.Scale, &opts.Ops, &opts.Seed)
	c.profileFlags()
	if _, st, ok := c.parse(args, 0); !ok {
		return st
	}
	return c.profiled(func() int {
		var failed []string
		for _, e := range experiments.Registry {
			fmt.Printf("=== %s ===\n", e.ID)
			rep, err := e.Run(opts)
			if report(e.ID, rep, err) != 0 {
				failed = append(failed, e.ID)
			}
			fmt.Println()
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d experiments failed: %s\n", len(failed), len(experiments.Registry), strings.Join(failed, " "))
			return 1
		}
		return 0
	})
}

// shardCount parses one -shards count.
func shardCount(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad shard count %q", s)
	}
	return n, nil
}

func cmdCompare(args []string) int {
	c := newCommand("compare", "[flags]")
	cfg := experiments.CompareConfig{Shards: []int{1, 2, 4, 8}}
	workloadFlags(c, &cfg.Scale, &cfg.Ops, &cfg.Seed)
	c.Func("shards", "comma-separated shard counts (default 1,2,4,8)", func(s string) error {
		cfg.Shards = nil
		for _, f := range strings.Split(s, ",") {
			n, err := shardCount(f)
			if err != nil {
				return err
			}
			cfg.Shards = append(cfg.Shards, n)
		}
		return nil
	})
	c.Func("engines", "comma-separated engine filter: nemo,log,set,kg,fw (default all)", func(s string) error {
		cfg.Engines = strings.Split(s, ",")
		return experiments.CheckEngines(cfg.Engines)
	})
	c.IntVar(&cfg.Flushers, "flushers", 0, "Nemo's background flusher goroutines (0 = flush inline)")
	c.Float64Var(&cfg.SetFrac, "setfrac", 0.1, "fraction of requests rewritten to explicit SETs")
	c.Float64Var(&cfg.DelFrac, "delfrac", 0.02, "fraction of requests rewritten to DELETEs")
	deviceFlag(c, &cfg.Device)
	c.profileFlags()
	if _, st, ok := c.parse(args, 0); !ok {
		return st
	}
	return c.profiled(func() int {
		rep, err := experiments.RunCompare(cfg)
		return report("compare", rep, err)
	})
}
