package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nemo/internal/core"
	"nemo/internal/flashsim"
	"nemo/internal/server"
)

// TestDumpHealthReadsEachShard trips shard 0's breaker — threshold 1, every
// append failing, one flush of a set routed there — and checks that the
// SIGQUIT dump reports it from the shard's Readout: shard 0 open after one
// failure with its last error, shard 1 closed without one.
func TestDumpHealthReadsEachShard(t *testing.T) {
	const shards, data = 2, 16
	dev := flashsim.New(flashsim.Config{PageSize: 4096, PagesPerZone: 16, Zones: core.DeviceZonesFor(data, shards)})
	cfg := core.DefaultConfig(dev, data)
	cfg.Shards = shards
	cfg.BreakerThreshold = 1
	cache, err := core.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srv, err := server.New(server.Config{Engine: cache})
	if err != nil {
		t.Fatal(err)
	}

	key := []byte("dump-key-0")
	for i := 1; cache.ShardOf(key) != 0; i++ {
		key = []byte(fmt.Sprintf("dump-key-%d", i))
	}
	if err := cache.Set(key, []byte("dump-value")); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteFault(func(int) error { return errors.New("injected append fault") })
	if err := cache.Shard(0).Flush(); err == nil {
		t.Fatal("shard 0 flushed through a failing device")
	}
	dev.SetWriteFault(nil)

	var b bytes.Buffer
	dumpHealth(&b, srv, cache)
	out := b.String()
	lines := map[int]string{}
	for _, line := range strings.Split(out, "\n") {
		var i int
		if _, err := fmt.Sscanf(line, "  shard %d:", &i); err == nil {
			lines[i] = line
		}
	}
	if l := lines[0]; !strings.HasPrefix(l, "  shard 0: open fails=1 degraded_entered=1 degraded=0s ") ||
		!strings.Contains(l, ` last_err="`) || !strings.Contains(l, "injected append fault") {
		t.Errorf("shard 0 line %q, want open after one failure, with its last error", l)
	}
	if l := lines[1]; !strings.HasPrefix(l, "  shard 1: closed fails=0 degraded_entered=0 degraded=0s ") ||
		strings.Contains(l, "last_err=") {
		t.Errorf("shard 1 line %q, want closed without a failure", l)
	}
	if !strings.Contains(out, "  server cmd_get ") {
		t.Errorf("dump lacks the server's counters:\n%s", out)
	}
}
