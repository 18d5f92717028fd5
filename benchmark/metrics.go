package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"nemo/internal/server"
)

// This file turns measured windows into the named metrics: the end-to-end set
// from an untraced run, the per-layer set from a traced one (preceded by an
// untraced window of the same op count, which prices the tracing), and the
// traced run's two after-the-window ledgers — the resident-object census and
// the restart cycles.

// result is one workload's outcome in one mode.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Wrong     int64              `json:"wrong_bytes"`
	WindowS   float64            `json:"window_s"`
	Samples   map[string]int64   `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// segmentMedian is the median, over the window's segments, of f(segment);
// segments for which f reports no data are left out.
func segmentMedian(f func(seg int) (float64, bool)) float64 {
	var vs []float64
	for seg := 0; seg < segments; seg++ {
		if v, ok := f(seg); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// throughput is the median over segments of the clients' summed rate: each
// client's operations in the segment over the time it took that client.
func (w *window) throughput() float64 {
	return segmentMedian(func(seg int) (float64, bool) {
		rate := 0.0
		for _, st := range w.clients {
			d := st.segEnd[seg+1] - st.segEnd[seg]
			if d <= 0 {
				return 0, false
			}
			rate += float64(st.segOps[seg]) / (float64(d) / 1e9)
		}
		return rate, true
	})
}

// latencyUS is the median over segments of the q-quantile of the segment's
// merged latencies, in microseconds, and the samples it rests on.
func (w *window) latencyUS(set bool, q float64) (us float64, samples int64) {
	var merged [segments]hist
	for seg := range merged {
		for _, st := range w.clients {
			if set {
				merged[seg].merge(&st.setLat[seg])
			} else {
				merged[seg].merge(&st.getLat[seg])
			}
		}
		samples += int64(merged[seg].n)
	}
	us = segmentMedian(func(seg int) (float64, bool) {
		if merged[seg].n == 0 {
			return 0, false
		}
		return merged[seg].quantile(q) / 1e3, true
	})
	return us, samples
}

// whole is the merged latency histogram of the whole window.
func (w *window) whole(set bool) *hist {
	h := new(hist)
	for _, st := range w.clients {
		for seg := 0; seg < segments; seg++ {
			if set {
				h.merge(&st.setLat[seg])
			} else {
				h.merge(&st.getLat[seg])
			}
		}
	}
	return h
}

func (w *window) seconds() float64 {
	var first, last int64 = math.MaxInt64, 0
	for _, st := range w.clients {
		first = min(first, st.segEnd[0])
		last = max(last, st.segEnd[segments])
	}
	return float64(last-first) / 1e9
}

func (w *window) newResult(traced bool) *result {
	r := &result{
		Workload: w.cfg.wl.Name, Traced: traced,
		Attempted: w.total.attempted, Failed: w.total.failed, Wrong: w.total.wrongBytes,
		WindowS: w.seconds(),
		Samples: map[string]int64{}, Metrics: map[string]float64{},
	}
	_, r.Samples["get"] = w.latencyUS(false, 0.5)
	_, r.Samples["set"] = w.latencyUS(true, 0.5)
	return r
}

// endToEndResult computes the end-to-end metrics of an untraced window.
func (w *window) endToEndResult() *result {
	r := w.newResult(false)
	m := r.Metrics
	m["setup_s"] = median(w.setupS)
	m["throughput_ops_s"] = w.throughput()
	m["cpu_us_per_op"] = ratio(float64((w.after.cpu - w.before.cpu).Microseconds()), float64(w.total.ops()))
	m["hit_ratio"] = ratio(float64(w.total.hits), float64(w.total.getKeys))
	// From device open to the drained end of the window: the window alone
	// flushes too few SGs on get_fits and twitter_mix for a ratio of whole
	// SGs over admitted bytes to be steady to 2%.
	m["alwa"] = ratio(float64(w.after.stats.FlashBytesWritten), float64(w.after.stats.LogicalBytes))
	m["engine_heap_mib"] = float64(w.heap) / (1 << 20)
	return r
}

// measureEndToEnd is the --trace 0 run.
func measureEndToEnd(ctx context.Context, cfg runConfig) (*result, error) {
	w, sys, err := run(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	return w.endToEndResult(), nil
}

// measurePerLayer is the --trace 1 run: an untraced window, then the same
// window with both decorators in place, then the census and restart ledgers
// on the traced system. spansPath, when not empty, receives the spans.
func measurePerLayer(ctx context.Context, cfg runConfig, spansPath string) (r *result, err error) {
	cfg.setups = 1
	plain, sys, err := run(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := sys.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	w, sys, err := run(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := sys.close(); err == nil {
			err = cerr
		}
	}()
	r = w.newResult(true)
	r.Attempted += plain.total.attempted
	r.Failed += plain.total.failed
	r.Wrong += plain.total.wrongBytes
	w.perLayerMetrics(r.Metrics, tr, sys)
	r.Metrics["trace.overhead_share"] = 1 - ratio(w.throughput(), plain.throughput())

	resident, err := census(ctx, w, sys)
	if err != nil {
		return nil, err
	}
	r.Metrics["core.resident_objs"] = resident
	r.Metrics["core.heap_bits_per_obj"] = ratio(float64(w.heap)*8, resident)
	if err := restartLedger(ctx, w, sys, r.Metrics); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (w *window) perLayerMetrics(m map[string]float64, tr *tracer, sys *system) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	t := &w.total
	b, a := &w.before, &w.after
	gets := float64(t.getKeys)

	m["get_p50_us"], _ = w.latencyUS(false, 0.50)
	m["get_p99_us"], _ = w.latencyUS(false, 0.99)
	m["set_p50_us"], _ = w.latencyUS(true, 0.50)
	m["set_p99_us"], _ = w.latencyUS(true, 0.99)
	m["failed_share"] = ratio(float64(t.failed), float64(t.attempted))

	m["wire.get_p999_us"], m["wire.set_p999_us"], m["wire.rtt_max_us"] = 0, 0, 0
	if w.cfg.wl.Wire {
		m["wire.get_p999_us"] = w.whole(false).quantile(0.999) / 1e3
		m["wire.set_p999_us"] = w.whole(true).quantile(0.999) / 1e3
		m["wire.rtt_max_us"] = us(t.rttMax)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	get, many, set, del := &tr.agg[opCoreGet], &tr.agg[opCoreGetMany], &tr.agg[opCoreSet], &tr.agg[opCoreDelete]
	coreCalls := get.calls + many.calls + set.calls + del.calls
	coreKeys := get.n + many.n + set.n + del.n

	batches := float64(tr.agg[opWireBatch].calls)
	m["server.self_us_per_req"] = ratio(us(tr.agg[opWireBatch].busy-tr.coreUnderWire), batches)
	m["server.engine_calls_per_req"] = ratio(float64(coreCalls), batches)
	m["server.keys_per_engine_call"] = 0
	m["server.parse_ns_per_cmd"] = 0
	if w.cfg.wl.Wire {
		m["server.keys_per_engine_call"] = ratio(float64(coreKeys), float64(coreCalls))
		m["server.parse_ns_per_cmd"] = parseCost(w.cfg)
	}
	m["server.proto_errors"] = float64(a.serverFields["protocol_errors"] - b.serverFields["protocol_errors"])
	m["server.server_errors"] = float64(a.serverFields["server_errors"] - b.serverFields["server_errors"])

	m["core.get_calls"] = float64(get.calls)
	m["core.get_busy_s"] = sec(get.busy)
	m["core.get_self_us_per_key"] = ratio(us(get.busy-tr.devUnder[opCoreGet]), float64(get.n))
	m["core.getmany_calls"] = float64(many.calls)
	m["core.getmany_busy_s"] = sec(many.busy)
	m["core.getmany_self_us_per_key"] = ratio(us(many.busy-tr.devUnder[opCoreGetMany]), float64(many.n))
	m["core.set_calls"] = float64(set.calls)
	m["core.set_busy_s"] = sec(set.busy)
	m["core.set_p99_us"] = set.lat.quantile(0.99) / 1e3
	m["core.set_max_us"] = us(int64(set.lat.max))
	m["core.delete_calls"] = float64(del.calls)
	m["core.flash_reads_per_get"] = ratio(float64(tr.devPagesUnder[opCoreGet]+tr.devPagesUnder[opCoreGetMany]), gets)
	m["core.false_positive_reads_per_get"] = ratio(float64(a.extra.FalsePositiveReads-b.extra.FalsePositiveReads), gets)

	flushed := float64(a.extra.SGsFlushed - b.extra.SGsFlushed)
	newBytes := float64(a.extra.NewBytes - b.extra.NewBytes)
	wbBytes := float64(a.extra.WriteBackBytes - b.extra.WriteBackBytes)
	dataBytes := float64(a.extra.DataBytesWritten - b.extra.DataBytesWritten)
	indexBytes := float64(a.extra.IndexBytesWritten - b.extra.IndexBytesWritten)
	m["core.sgs_flushed"] = flushed
	// With no flush in the window the two flush-time ratios fall back to
	// the engine's own since-open figures.
	m["core.mean_fill_rate"] = sys.cache.MeanFillRate()
	m["core.paper_wa"] = sys.cache.PaperWA()
	if flushed > 0 {
		m["core.mean_fill_rate"] = (a.extra.FillSum - b.extra.FillSum) / flushed
		m["core.paper_wa"] = ratio(dataBytes, newBytes)
	}
	m["core.writeback_byte_share"] = ratio(wbBytes, newBytes+wbBytes)
	m["core.index_byte_share"] = ratio(indexBytes, dataBytes+indexBytes)
	m["core.sacrificed_per_kset"] = ratio(float64(a.extra.Sacrificed-b.extra.Sacrificed), float64(a.stats.Sets-b.stats.Sets)/1e3)
	m["core.evictions"] = float64(a.stats.Evictions - b.stats.Evictions)
	m["core.read_errors"] = float64(a.stats.ReadErrors - b.stats.ReadErrors)
	m["core.write_errors"] = float64(a.stats.WriteErrors - b.stats.WriteErrors)
	m["core.degraded_rejects"] = float64(a.stats.DegradedRejects - b.stats.DegradedRejects)
	m["core.stale_hits"] = float64(t.stale)
	m["core.resurrected_hits"] = float64(t.resurrected)

	m["index.pbfg_lookups_per_get"] = ratio(float64(a.pbfgLookups-b.pbfgLookups), gets)
	m["index.pbfg_miss_ratio"] = ratio(float64(a.pbfgMisses-b.pbfgMisses), float64(a.pbfgLookups-b.pbfgLookups))

	rd, ap, rs := &tr.agg[opDevRead], &tr.agg[opDevAppend], &tr.agg[opDevReset]
	m["device.read_calls"] = float64(rd.calls)
	m["device.read_pages"] = float64(rd.n)
	m["device.pages_per_read_call"] = ratio(float64(rd.n), float64(rd.calls))
	m["device.read_busy_s"] = sec(rd.busy)
	m["device.read_p50_us"] = rd.lat.quantile(0.50) / 1e3
	m["device.read_p99_us"] = rd.lat.quantile(0.99) / 1e3
	m["device.append_calls"] = float64(ap.calls)
	m["device.append_pages"] = float64(ap.n)
	m["device.append_busy_s"] = sec(ap.busy)
	m["device.append_us_per_page"] = ratio(us(ap.busy), float64(ap.n))
	m["device.reset_calls"] = float64(rs.calls)
	m["device.reset_busy_s"] = sec(rs.busy)
	var fg int64
	for _, d := range tr.devUnder {
		fg += d
	}
	m["device.fg_busy_s"] = sec(fg)
	m["device.bg_busy_s"] = sec(tr.devBackground)
	m["device.bytes_written_per_user_byte"] = ratio(float64(a.dev.BytesWritten-b.dev.BytesWritten), float64(t.userBytes))
	m["device.errors"] = float64(rd.errs + ap.errs + rs.errs)

	m["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	m["runtime.allocs_per_op"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), float64(t.ops()))
	m["runtime.heap_objects"] = float64(w.heapObj)
	m["trace.spans_dropped"] = float64(tr.dropped)
}

// parseCost times server.ParseCommand over the workload's own request lines
// (the first 2048 commands of connection 0's stream), in ns per command.
func parseCost(cfg runConfig) float64 {
	shape := shapeOf(cfg.wl, cfg.sut)
	gen := newGenerator(cfg.wl, shape, newLedger(shape.keys), cfg.seed, 0, cfg.sut.poolBytes())
	var lines [][]byte
	b := batch{wire: make([]byte, 0, 64<<10)}
	for len(lines) < 2048 {
		gen.next(&b)
		rest := b.wire
		for i := 0; i < b.n; i++ {
			end := bytes.Index(rest, []byte("\r\n"))
			lines = append(lines, append([]byte(nil), rest[:end]...))
			rest = rest[end+2:]
			if b.cmds[i].kind == cmdSet {
				rest = rest[shape.valueSize(b.cmds[i].ids[0])+2:]
			}
		}
	}
	var cmd server.Command
	const rounds = 25
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, l := range lines {
			if err := server.ParseCommand(l, &cmd); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(lines))
}

// sampleHits GETs n seeded keys straight from the engine and counts hits.
func sampleHits(ctx context.Context, w *window, sys *system, purpose string, n int) (hits, asked int, err error) {
	shape := shapeOf(w.cfg.wl, w.cfg.sut)
	n = min(n, shape.keys)
	r := rng{s: streamSeed(w.cfg.seed, w.cfg.wl.Name, 0, purpose)}
	key := make([]byte, 0, 256)
	for i := 0; i < n; i++ {
		if i%4096 == 0 && ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		key = shape.appendKey(key[:0], r.intn(shape.keys))
		if _, hit := sys.cache.Get(key); hit {
			hits++
		}
	}
	return hits, n, nil
}

// census estimates resident objects: the hit share of a uniform key sample
// times the key space.
func census(ctx context.Context, w *window, sys *system) (float64, error) {
	hits, asked, err := sampleHits(ctx, w, sys, "census", w.cfg.censusKeys)
	if err != nil {
		return 0, err
	}
	shape := shapeOf(w.cfg.wl, w.cfg.sut)
	return ratio(float64(hits), float64(asked)) * float64(shape.keys), nil
}

// restartLedger runs the drain -> checkpoint -> close -> reopen -> restore
// cycle restartCycles times and reports the medians.
func restartLedger(ctx context.Context, w *window, sys *system, m map[string]float64) error {
	if err := sys.stopServer(); err != nil {
		return err
	}
	before, _, err := sampleHits(ctx, w, sys, "restart", w.cfg.restartKeys)
	if err != nil {
		return err
	}
	var checkpointMS, restoreMS, retention, fileBytes []float64
	for i := 0; i < restartCycles; i++ {
		t0 := time.Now()
		if err := sys.cache.Checkpoint(sys.snapshot); err != nil {
			return err
		}
		checkpointMS = append(checkpointMS, float64(time.Since(t0).Microseconds())/1e3)
		fi, err := os.Stat(sys.snapshot)
		if err != nil {
			return err
		}
		fileBytes = append(fileBytes, float64(fi.Size()))
		t1 := time.Now()
		if err := sys.reopenWarm(); err != nil {
			return err
		}
		restoreMS = append(restoreMS, float64(time.Since(t1).Microseconds())/1e3)
		after, _, err := sampleHits(ctx, w, sys, "restart", w.cfg.restartKeys)
		if err != nil {
			return err
		}
		retention = append(retention, ratio(float64(after), float64(before)))
	}
	m["snapshot.checkpoint_ms"] = median(checkpointMS)
	m["snapshot.restore_ms"] = median(restoreMS)
	m["snapshot.file_bytes"] = median(fileBytes)
	m["snapshot.hit_retention"] = median(retention)
	return nil
}

// checkComplete reports the named metrics r lacks or holds as non-finite.
func (r *result) checkComplete(defs []metricDef) error {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("benchmark: %s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("benchmark: %s: metric %s is %v", r.Workload, d.Name, v)
		}
	}
	return nil
}
