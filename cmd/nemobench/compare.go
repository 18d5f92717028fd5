package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"nemo/internal/backend"
	"nemo/internal/experiments"
)

// compareOptions carries the -compare flag set.
type compareOptions struct {
	shardList string
	workers   int
	ops       int
	seed      int64
	batch     int
	async     bool
	flushers  int
	setFrac   float64
	delFrac   float64
	scale     string
	engines   string       // comma-separated filter (nemo,log,set,kg,fw)
	parallel  bool         // replay the engines of one shard count concurrently
	noTime    bool         // omit wall-clock columns (byte-deterministic table)
	device    backend.Spec // device backend every engine runs on
}

// runCompare drives the cross-engine comparison: the same materialized
// mixed trace through all five sharded engines at each shard count.
func runCompare(out io.Writer, o compareOptions) error {
	shardCounts, err := parseShardList(o.shardList)
	if err != nil {
		return err
	}
	var engines []string
	if s := strings.TrimSpace(o.engines); s != "" {
		engines = strings.Split(s, ",")
	}
	return experiments.RunCompare(experiments.CompareConfig{
		Scale:    o.scale,
		Shards:   shardCounts,
		Workers:  o.workers,
		Ops:      o.ops,
		Seed:     o.seed,
		Batch:    o.batch,
		Async:    o.async,
		Flushers: o.flushers,
		SetFrac:  o.setFrac,
		DelFrac:  o.delFrac,
		Engines:  engines,
		Parallel: o.parallel,
		HostTime: !o.noTime,
		Device:   o.device,
		Out:      out,
	})
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
