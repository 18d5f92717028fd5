package server_test

import (
	"fmt"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/memclient"
	"nemo/internal/server"
)

// tracedShape is the shape of a tracing decorator: it embeds the Engine and
// overrides one method, so every other one — Fields included — is the
// embedded engine's, and nothing but the Engine interface is visible.
type tracedShape struct{ cachelib.Engine }

func (e tracedShape) Get(key []byte) ([]byte, bool) { return e.Engine.Get(key) }

// TestStatsServesWrappedReadout serves a Nemo engine behind a wrapper that
// embeds cachelib.Engine, as a tracing decorator does, and reads the stats
// verb on a quiescent engine. Every resident_* row of the engine's Readout
// is served with its value; and every row the verb has always served — the
// server's counters, the runtime gauges, the engine_* counters and the
// resident_* ledger, listed here by name with each value's source — is
// still served, with that value.
func TestStatsServesWrappedReadout(t *testing.T) {
	eng, _ := newEngine(t, 2, 0)
	_, dial := startServer(t, server.Config{Engine: tracedShape{eng}, MaxItemBytes: testMaxItem})
	cli := dial()
	defer cli.Close()
	mc := memclient.New(cli)
	for i := 0; i < 400; i++ {
		k, v := fmt.Sprintf("readout-%04d", i), fmt.Sprintf("value-%04d-%s", i, strings.Repeat("r", 40))
		if err := mc.Set([]byte(k), []byte(v), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 400; i += 7 {
		_, _, found, err := mc.Get([]byte(fmt.Sprintf("readout-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			hits++
		}
	}

	m := readStats(t, cli)
	r := eng.Readout()
	if r.Objects == 0 || r.SGsFlushed == 0 {
		t.Fatalf("engine holds %d objects after %d flushes; the test needs both nonzero", r.Objects, r.SGsFlushed)
	}
	resident := 0
	for _, f := range r.Fields() {
		if !strings.HasPrefix(f.Name, "resident_") {
			continue
		}
		resident++
		if got, ok := m[f.Name]; !ok || got != f.Value {
			t.Errorf("wrapped stats %s = %d (served: %v), want the Readout's %d", f.Name, got, ok, f.Value)
		}
	}
	if resident == 0 {
		t.Fatal("the Readout lists no resident_* rows")
	}

	served := map[string]uint64{
		"engine_gets":                 r.Gets,
		"engine_hits":                 r.Hits,
		"engine_sets":                 r.Sets,
		"engine_deletes":              r.Deletes,
		"engine_logical_bytes":        r.LogicalBytes,
		"engine_flash_bytes_written":  r.FlashBytesWritten,
		"engine_device_bytes_written": r.DeviceBytesWritten,
		"engine_flash_bytes_read":     r.FlashBytesRead,
		"engine_flash_read_ops":       r.FlashReadOps,
		"engine_read_errors":          r.ReadErrors,
		"engine_write_errors":         r.WriteErrors,
		"engine_evictions":            r.Evictions,
		"engine_write_retries":        r.WriteRetries,
		"engine_degraded_rejects":     r.DegradedRejects,
		"engine_degraded_entered":     r.DegradedEntered,
		"engine_degraded_seconds":     r.DegradedSeconds,
		"engine_breaker_open":         r.BreakerOpen,
		"resident_objects":            r.Objects,
		"resident_paper_meta_bytes":   r.PBFGCache + r.GroupBuffers + r.SGMeta,
		"resident_pbfg_cache_bytes":   r.PBFGCache,
		"resident_group_buffer_bytes": r.GroupBuffers,
		"resident_sg_meta_bytes":      r.SGMeta,
		"resident_model_meta_bytes":   r.ModelMeta,
		"resident_write_buffer_bytes": r.WriteBuffers,
		"resident_flush_kit_bytes":    r.FlushKits,
		"resident_total_bytes":        r.PBFGCache + r.GroupBuffers + r.SGMeta + r.WriteBuffers + r.FlushKits,
	}
	for name, want := range served {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("stats %s = %d (served: %v), want %d", name, got, ok, want)
		}
	}
	// The runtime gauges and the connection counters move on their own, so
	// only their names are pinned; the request counts match the client's.
	names := []string{
		"curr_connections", "total_connections", "cmd_get", "cmd_set", "cmd_delete",
		"get_hits", "get_misses", "protocol_errors", "server_errors", "conns_rejected",
		"idle_disconnects", "deadline_disconnects",
		"runtime_heap_objects", "runtime_heap_bytes", "runtime_gc_pause_total_ns",
	}
	for _, name := range names {
		if _, ok := m[name]; !ok {
			t.Errorf("stats no longer serves %s", name)
		}
	}
	if m["cmd_set"] != 400 || m["cmd_get"] != 58 || m["get_hits"] != uint64(hits) || hits == 0 {
		t.Errorf("cmd_set %d, cmd_get %d, get_hits %d; want 400, 58 and the %d the client saw (nonzero)",
			m["cmd_set"], m["cmd_get"], m["get_hits"], hits)
	}
}
