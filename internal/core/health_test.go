package core

// Deterministic circuit-breaker tests (health.go): trip, degraded
// rejection, half-open probe recovery, re-trip after an optimistic close,
// bounded append retries, disabled-by-default behavior, and per-shard
// isolation. Everything is timed on flashsim's virtual clock, so trips,
// probe windows, and DegradedSeconds move only when the test advances it.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/flashsim"
)

func hKey(i int) []byte   { return []byte(fmt.Sprintf("hl-key-%06d-pad", i)) }
func hValue(i int) []byte { return []byte(fmt.Sprintf("hl-value-%06d-padpadpad", i)) }

func newBreakerCache(t *testing.T, mod func(*Config)) (*Cache, *flashsim.Device) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 4
	// Suppress the sacrifice trigger (and these tests never fill the rear
	// SG to the rear-full trigger): every flush in these tests is an
	// explicit Flush() call, so the failure sequence is exact.
	cfg.FlushThreshold = 1 << 20
	cfg.BreakerThreshold = 2
	cfg.BreakerProbeAfter = 10 * time.Second
	if mod != nil {
		mod(&cfg)
	}
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

// TestBreakerTripRejectRecover walks the whole lifecycle: consecutive flush
// failures trip the shard, degraded mode rejects writes but serves reads,
// and after the faults clear a half-open probe closes the breaker again.
func TestBreakerTripRejectRecover(t *testing.T) {
	c, dev := newBreakerCache(t, nil)
	clk := dev.Clock()

	// Land a population safely on flash before any fault: a failed flush
	// drops its sealed SG, so only flash-resident keys can prove that reads
	// keep serving through the degraded window.
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Set(hKey(i), hValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("pre-fault flush: %v", err)
	}

	plan := device.NewFaultPlan(1, device.FaultRule{Op: device.FaultWrite, ErrRate: 1})
	plan.Arm(dev)

	// First failure: breaker still closed, writes still flow.
	if err := c.Flush(); err == nil {
		t.Fatal("flush succeeded under an all-writes-fail plan")
	}
	if err := c.Set(hKey(n), hValue(n)); err != nil {
		t.Fatalf("set after one failure (threshold 2): %v", err)
	}
	if st := c.Readout().Breaker; st != BreakerClosed {
		t.Fatalf("breaker %v after 1 failure, want closed", st)
	}

	// Second consecutive failure: tripped.
	if err := c.Flush(); err == nil {
		t.Fatal("flush succeeded under an all-writes-fail plan")
	}
	if st := c.Readout().Breaker; st != BreakerOpen {
		t.Fatalf("breaker %v after 2 failures, want open", st)
	}

	// Degraded: writes rejected with the typed sentinel, cheaply.
	if err := c.Set(hKey(n+1), hValue(n+1)); !errors.Is(err, cachelib.ErrDegraded) {
		t.Fatalf("degraded Set error = %v, want ErrDegraded", err)
	}
	if err := c.Delete(hKey(0)); !errors.Is(err, cachelib.ErrDegraded) {
		t.Fatalf("degraded Delete error = %v, want ErrDegraded", err)
	}
	// Reads keep serving from memory.
	for i := 0; i < n; i++ {
		if v, hit := c.Get(hKey(i)); !hit || string(v) != string(hValue(i)) {
			t.Fatalf("key %d unreadable while degraded: %q %v", i, v, hit)
		}
	}
	s := c.Stats()
	if s.DegradedEntered != 1 || s.BreakerOpen != 1 || s.DegradedRejects != 2 {
		t.Fatalf("degraded stats = entered %d open %d rejects %d, want 1/1/2",
			s.DegradedEntered, s.BreakerOpen, s.DegradedRejects)
	}
	if s.WriteErrors != 2 {
		t.Fatalf("WriteErrors = %d, want 2", s.WriteErrors)
	}

	// Before the probe window, writes stay rejected no matter what.
	clk.Advance(9 * time.Second)
	if err := c.Set(hKey(n+2), hValue(n+2)); !errors.Is(err, cachelib.ErrDegraded) {
		t.Fatalf("pre-probe Set error = %v, want ErrDegraded", err)
	}

	// Past the probe window with the fault cleared: one probe write is
	// admitted, succeeds, and closes the breaker.
	clk.Advance(21 * time.Second) // 30s total degraded
	plan.Disarm()
	if err := c.Set(hKey(n+3), hValue(n+3)); err != nil {
		t.Fatalf("probe Set: %v", err)
	}
	if st := c.Readout().Breaker; st != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	s = c.Stats()
	if s.BreakerOpen != 0 || s.DegradedEntered != 1 {
		t.Fatalf("post-recovery stats = open %d entered %d, want 0/1", s.BreakerOpen, s.DegradedEntered)
	}
	if s.DegradedSeconds != 30 {
		t.Fatalf("DegradedSeconds = %d, want 30", s.DegradedSeconds)
	}
	// The device really is healthy again.
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if got := c.Stats().DegradedSeconds; got != 30 {
		t.Fatalf("DegradedSeconds moved to %d after close, want 30", got)
	}
}

// TestBreakerProbeFailureReopens pins the half-open state machine directly:
// a probe whose flush fails re-opens the breaker (same degraded window, no
// new DegradedEntered), and the next probe waits a full interval.
func TestBreakerProbeFailureReopens(t *testing.T) {
	c, dev := newBreakerCache(t, nil)
	clk := dev.Clock()
	injected := errors.New("probe flush died")

	c.mu.Lock()
	c.breakerFlushFailedLocked(injected)
	c.breakerFlushFailedLocked(injected) // threshold 2: tripped
	if c.brk.state != BreakerOpen {
		c.mu.Unlock()
		t.Fatalf("state %v after threshold failures, want open", c.brk.state)
	}
	c.mu.Unlock()

	clk.Advance(10 * time.Second)
	c.mu.Lock()
	probe, err := c.breakerAllowWriteLocked()
	if !probe || err != nil {
		c.mu.Unlock()
		t.Fatalf("probe not admitted after interval: probe=%v err=%v", probe, err)
	}
	if c.brk.state != BreakerHalfOpen {
		c.mu.Unlock()
		t.Fatalf("state %v during probe, want half-open", c.brk.state)
	}
	// A second write during the probe is still rejected.
	if _, err := c.breakerAllowWriteLocked(); !errors.Is(err, cachelib.ErrDegraded) {
		c.mu.Unlock()
		t.Fatalf("concurrent write during probe: %v, want ErrDegraded", err)
	}
	// The probe's flush fails: half-open → open, window continues.
	c.breakerFlushFailedLocked(injected)
	c.breakerWriteDoneLocked(probe, injected)
	if c.brk.state != BreakerOpen || c.brk.probing {
		c.mu.Unlock()
		t.Fatalf("state %v probing %v after failed probe, want open/false", c.brk.state, c.brk.probing)
	}
	// Not yet: the next probe waits another full interval from the failure.
	clk.Advance(9 * time.Second)
	if _, err := c.breakerAllowWriteLocked(); !errors.Is(err, cachelib.ErrDegraded) {
		c.mu.Unlock()
		t.Fatalf("write 9s after failed probe: %v, want ErrDegraded", err)
	}
	clk.Advance(time.Second)
	probe, err = c.breakerAllowWriteLocked()
	if !probe || err != nil {
		c.mu.Unlock()
		t.Fatalf("second probe not admitted: probe=%v err=%v", probe, err)
	}
	c.breakerWriteDoneLocked(probe, nil) // this one succeeds
	state := c.brk.state
	c.mu.Unlock()
	if state != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", state)
	}
	s := c.Stats()
	if s.DegradedEntered != 1 {
		t.Fatalf("DegradedEntered = %d across one window with a failed probe, want 1", s.DegradedEntered)
	}
	if s.DegradedSeconds != 20 {
		t.Fatalf("DegradedSeconds = %d, want 20", s.DegradedSeconds)
	}
}

// TestBreakerOptimisticCloseRetrips: a probe that triggers no flush closes
// the breaker on trust; if the device is still sick, the next flush
// failures re-trip it and open a NEW degraded window.
func TestBreakerOptimisticCloseRetrips(t *testing.T) {
	c, dev := newBreakerCache(t, nil)
	clk := dev.Clock()

	plan := device.NewFaultPlan(1, device.FaultRule{Op: device.FaultWrite, ErrRate: 1})
	plan.Arm(dev)
	c.Flush()
	c.Flush() // tripped
	if st := c.Readout().Breaker; st != BreakerOpen {
		t.Fatalf("breaker %v, want open", st)
	}
	clk.Advance(10 * time.Second)
	// Probe insert fits in memory, no flush due → optimistic close, even
	// though the device is still faulty.
	if err := c.Set(hKey(0), hValue(0)); err != nil {
		t.Fatalf("probe Set: %v", err)
	}
	if st := c.Readout().Breaker; st != BreakerClosed {
		t.Fatalf("breaker %v after flushless probe, want closed (optimistic)", st)
	}
	// The lie is found out within one threshold of flush attempts.
	c.Flush()
	c.Flush()
	if st := c.Readout().Breaker; st != BreakerOpen {
		t.Fatalf("breaker %v after re-failures, want open", st)
	}
	if got := c.Stats().DegradedEntered; got != 2 {
		t.Fatalf("DegradedEntered = %d, want 2 (second window)", got)
	}
}

// TestWriteRetriesAbsorbTransient: a fail-once fault is absorbed by the
// bounded append-retry loop — the flush succeeds, nothing counts against
// WriteErrors or the breaker, and the retry is visible in Stats.
func TestWriteRetriesAbsorbTransient(t *testing.T) {
	c, dev := newBreakerCache(t, func(cfg *Config) {
		cfg.WriteRetries = 2
		cfg.RetryBackoff = time.Millisecond
	})
	for i := 0; i < 8; i++ {
		if err := c.Set(hKey(i), hValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := device.NewFaultPlan(1, device.FaultRule{Op: device.FaultWrite, ErrRate: 1, FailN: 1})
	plan.Arm(dev)
	before := dev.Clock().Now()
	if err := c.Flush(); err != nil {
		t.Fatalf("flush with fail-once fault and 2 retries: %v", err)
	}
	s := c.Stats()
	if s.WriteErrors != 0 {
		t.Fatalf("WriteErrors = %d, want 0 (retry absorbed the fault)", s.WriteErrors)
	}
	if s.WriteRetries != 1 {
		t.Fatalf("WriteRetries = %d, want 1", s.WriteRetries)
	}
	if r := c.Readout(); r.Breaker != BreakerClosed || r.ConsecutiveFails != 0 {
		t.Fatalf("breaker %s with %d fails after absorbed fault, want closed/0 fails", r.Breaker, r.ConsecutiveFails)
	}
	// The backoff advanced the virtual clock.
	if dev.Clock().Now() == before {
		t.Fatal("RetryBackoff did not advance the virtual clock")
	}
	// Data reached flash despite the transient fault.
	for i := 0; i < 8; i++ {
		if _, hit := c.Get(hKey(i)); !hit {
			t.Fatalf("key %d lost after retried flush", i)
		}
	}
}

// TestBreakerDisabledByDefault: with BreakerThreshold 0 (the zero-value
// Config), failures accumulate in WriteErrors forever and writes are never
// rejected with ErrDegraded — the exact historical behavior every
// equivalence pin runs under.
func TestBreakerDisabledByDefault(t *testing.T) {
	c, dev := newBreakerCache(t, func(cfg *Config) {
		cfg.BreakerThreshold = 0
	})
	plan := device.NewFaultPlan(1, device.FaultRule{Op: device.FaultWrite, ErrRate: 1})
	plan.Arm(dev)
	for i := 0; i < 5; i++ {
		if err := c.Flush(); err == nil {
			t.Fatal("flush succeeded under an all-writes-fail plan")
		}
	}
	if err := c.Set(hKey(0), hValue(0)); errors.Is(err, cachelib.ErrDegraded) {
		t.Fatal("breaker-disabled cache returned ErrDegraded")
	}
	s := c.Stats()
	if s.WriteErrors != 5 || s.BreakerOpen != 0 || s.DegradedEntered != 0 || s.DegradedRejects != 0 {
		t.Fatalf("disabled-breaker stats = %+v, want 5 write errors and zero breaker activity", s)
	}
}

// TestShardedHealthIsolation: one sick shard degrades alone — its siblings
// keep accepting writes, and the shards' read-outs and the facade's summed
// stats report exactly one open breaker.
func TestShardedHealthIsolation(t *testing.T) {
	const shards = 2
	perIdx := IndexZonesFor(8, 4)
	perShard := 8 + perIdx
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: shards * perShard})
	cfg := DefaultConfig(dev, 8*shards)
	cfg.Shards = shards
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 1 << 20
	cfg.BreakerThreshold = 1
	cfg.BreakerProbeAfter = 10 * time.Second
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fault only shard 0's zone range.
	zones := make([]int, perShard)
	for i := range zones {
		zones[i] = i
	}
	plan := device.NewFaultPlan(1, device.FaultRule{Op: device.FaultWrite, ErrRate: 1, Zones: zones})
	plan.Arm(dev)
	if err := s.Shard(0).Flush(); err == nil {
		t.Fatal("shard 0 flush succeeded under its zone fault")
	}

	if st := s.Shard(0).Readout().Breaker; st != BreakerOpen {
		t.Fatalf("shard 0 breaker %s, want open", st)
	}
	if st := s.Shard(1).Readout().Breaker; st != BreakerClosed {
		t.Fatalf("shard 1 breaker %s, want closed", st)
	}

	// Writes route-dependently: shard 0 rejects, shard 1 accepts.
	var hit0, hit1 bool
	for i := 0; i < 64 && (!hit0 || !hit1); i++ {
		key := hKey(i)
		err := s.Set(key, hValue(i))
		switch s.ShardOf(key) {
		case 0:
			hit0 = true
			if !errors.Is(err, cachelib.ErrDegraded) {
				t.Fatalf("set on degraded shard 0: %v, want ErrDegraded", err)
			}
		default:
			hit1 = true
			if err != nil {
				t.Fatalf("set on healthy shard 1: %v", err)
			}
		}
	}
	if !hit0 || !hit1 {
		t.Fatal("test keys did not cover both shards")
	}
	if sum := s.Stats(); sum.BreakerOpen != 1 || sum.DegradedEntered != 1 {
		t.Fatalf("summed stats = open %d entered %d, want 1/1", sum.BreakerOpen, sum.DegradedEntered)
	}
	// Shard 1 flushes fine throughout.
	if err := s.Shard(1).Flush(); err != nil {
		t.Fatalf("healthy shard flush: %v", err)
	}
}
