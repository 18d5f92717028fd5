// Package chaos is the fault-injection harness behind `nemobench chaos`:
// it serves a breaker-enabled Nemo engine over a live loopback listener,
// arms a named fault scenario (a seeded device.FaultPlan) under client
// load, and reports what the serving stack did about it — availability
// (served ops %), degraded sheds, the breaker's degraded-window length,
// and how long recovery took once the device healed.
//
// The harness heals the device (disarms the plan) after the load phase and
// then probes until a SET succeeds, so every run ends with a cleanly
// drained shutdown; a scenario that leaves the stack unable to recover is
// a failed run, not a tolerated one.
package chaos

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"nemo/internal/backend"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/memclient"
	"nemo/internal/server"
	"nemo/internal/setblock"
	"nemo/internal/vtime"
)

// The harness geometry: a serving stack scaled well down (a 1 MiB SG
// pool, 64 KiB zones) so a few thousand requests overwrite the pool
// several times — the flush pipeline, where faults bite, must churn for
// the whole load phase even in a -race CI smoke run.
const (
	zonesTotal   = 16
	pagesPerZone = 16
	pageSize     = 4096
	valueSize    = 250
)

// The breaker shape of every run (a chaos run without a breaker measures
// nothing), the bound on the post-heal probe loop, and the client load:
// four connections sending eight-deep pipelined batches.
const (
	breakerThreshold  = 3
	breakerProbeAfter = 100 * time.Millisecond
	writeRetries      = 1 // bounded append retries
	recoveryTimeout   = 10 * time.Second
	conns             = 4
	pipeline          = 8
)

// Scenario names a composable fault plan. Rules receives the device's
// total zone count so per-zone scenarios can target real zones.
type Scenario struct {
	Name string
	Note string
	// Rules builds the plan's rules for a device with zones total zones.
	Rules func(zones int) []device.FaultRule
}

// Scenarios returns the built-in scenario registry in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "write-outage",
			Note: "total write outage, recovers after 40 failed writes (fail-N-then-recover)",
			Rules: func(int) []device.FaultRule {
				return []device.FaultRule{{Op: device.FaultWrite, ErrRate: 1, FailN: 40}}
			},
		},
		{
			Name: "flaky-writes",
			Note: "20% of page writes fail for the whole load phase, each failing its append run",
			Rules: func(int) []device.FaultRule {
				return []device.FaultRule{{Op: device.FaultWrite, ErrRate: 0.2}}
			},
		},
		{
			Name: "slow-reads",
			Note: "every device read pays 200µs of added latency",
			Rules: func(int) []device.FaultRule {
				return []device.FaultRule{{Op: device.FaultRead, Latency: 200 * time.Microsecond}}
			},
		},
		{
			Name: "zone-kill",
			Note: "the first data zone fails every read and write",
			Rules: func(int) []device.FaultRule {
				return []device.FaultRule{{Op: device.FaultRead | device.FaultWrite, ErrRate: 1, Zones: []int{0}}}
			},
		},
	}
}

// ByName resolves a scenario, listing the registry on a miss.
func ByName(name string) (Scenario, error) {
	var names []string
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
}

// Config parameterizes one chaos run.
type Config struct {
	Scenario Scenario
	Seed     uint64       // fault-plan seed (0 is a valid fixed seed)
	Device   backend.Spec // zero value = simulator
	Shards   int          // engine shards (default 2)
	Flushers int          // background flushers (0 = inline flushes: STORED means stored)
	Ops      int          // total requests across connections (default 4000)
}

// Result is what one chaos run observed.
type Result struct {
	Scenario string

	Ops             int     // requests issued during the load phase
	Served          int     // well-formed, non-shed replies
	DegradedSheds   int     // SERVER_ERROR degraded replies
	OtherErrors     int     // unexpected replies
	Availability    float64 // Served / Ops
	RecoverySecs    float64 // heal → first STORED
	DegradedEntered uint64  // breaker trips (engine stats)
	DegradedSeconds uint64  // device-clock degraded time
	WriteRetries    uint64

	InjectedWrites uint64 // what the plan actually did
	InjectedReads  uint64
	DelayedOps     uint64
}

func key(i int) []byte { return []byte(fmt.Sprintf("chaos-key-%08d-pad", i)) }

func value(i int) []byte {
	v := make([]byte, valueSize)
	n := copy(v, fmt.Sprintf("chaos-value-%08d-", i))
	for j := n; j < valueSize; j++ {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

// Run executes one scenario: build the breaker-enabled engine and server,
// arm the plan, drive the load, heal, probe recovery, drain, report.
func Run(cfg Config) (Result, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 4000
	}
	if zonesTotal%cfg.Shards != 0 {
		return Result{}, fmt.Errorf("chaos: %d data zones not divisible by %d shards", zonesTotal, cfg.Shards)
	}

	dev, err := cfg.Device.Open(device.Geometry{
		PageSize:     pageSize,
		PagesPerZone: pagesPerZone,
		Zones:        core.DeviceZonesFor(zonesTotal, cfg.Shards),
	})
	if err != nil {
		return Result{}, err
	}
	defer dev.Close()

	ecfg := core.DefaultConfig(dev, zonesTotal)
	ecfg.Shards = cfg.Shards
	ecfg.Flushers = cfg.Flushers
	ecfg.BreakerThreshold = breakerThreshold
	ecfg.BreakerProbeAfter = breakerProbeAfter
	ecfg.WriteRetries = writeRetries
	cache, err := core.NewSharded(ecfg)
	if err != nil {
		return Result{}, err
	}
	defer cache.Close()

	srv, err := server.New(server.Config{
		Engine:       cache,
		MaxItemBytes: setblock.MaxObjectBytes(pageSize),
	})
	if err != nil {
		return Result{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	go srv.Serve(l)

	res := Result{Scenario: cfg.Scenario.Name}

	// Load phase under chaos. The key space is a multiple of pool capacity
	// so the write stream keeps the flush pipeline (the faulted path) busy.
	plan := device.NewFaultPlan(cfg.Seed, cfg.Scenario.Rules(dev.Zones())...)
	plan.Arm(dev)
	const poolBytes = zonesTotal * pagesPerZone * pageSize
	keySpace := 3 * poolBytes / valueSize
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t := &tallies[g]
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.err = err
				return
			}
			defer nc.Close()
			t.err = drive(memclient.New(nc), g, cfg.Ops, keySpace, t)
		}(g)
	}
	wg.Wait()
	for g := range tallies {
		t := &tallies[g]
		if t.err != nil {
			return Result{}, fmt.Errorf("chaos: conn %d: %w", g, t.err)
		}
		res.Ops += t.ops
		res.Served += t.served
		res.DegradedSheds += t.sheds
		res.OtherErrors += t.other
	}
	if res.Ops > 0 {
		res.Availability = float64(res.Served) / float64(res.Ops)
	}

	// Heal, then probe until writes flow again: the breaker must find its
	// own way back (half-open probe), no restart allowed.
	plan.Disarm()
	healed := time.Now()
	if err := probeRecovery(l.Addr().String(), dev.Clock(), recoveryTimeout); err != nil {
		return Result{}, err
	}
	res.RecoverySecs = time.Since(healed).Seconds()

	if err := srv.Shutdown(); err != nil {
		return Result{}, fmt.Errorf("chaos: drain after heal: %w", err)
	}
	st := cache.Stats()
	res.DegradedEntered = st.DegradedEntered
	res.DegradedSeconds = st.DegradedSeconds
	res.WriteRetries = st.WriteRetries
	fs := plan.Stats()
	res.InjectedWrites = fs.InjectedWrites
	res.InjectedReads = fs.InjectedReads
	res.DelayedOps = fs.DelayedOps
	return res, nil
}

// tally accumulates one connection's observations.
type tally struct {
	ops, served, sheds, other int
	err                       error
}

// drive issues this connection's share of the load as pipelined batches
// alternating sets and gets, classifying every reply: served, degraded
// shed, or unexpected.
func drive(cl *memclient.Client, g, ops, keySpace int, t *tally) error {
	perConn := max(ops/conns, pipeline)
	lo := g * keySpace / conns
	span := (g+1)*keySpace/conns - lo
	setCursor := 0
	for b := 0; b < perConn/pipeline; b++ {
		if b%2 == 0 {
			for i := 0; i < pipeline; i++ {
				k := lo + setCursor%span
				setCursor++
				cl.QueueSet(key(k), value(k), uint32(k), false)
			}
			if err := cl.Flush(); err != nil {
				return err
			}
			for i := 0; i < pipeline; i++ {
				status, err := cl.ReadStatus()
				if err != nil {
					return err
				}
				t.ops++
				switch {
				case status == "STORED":
					t.served++
				case status == "SERVER_ERROR degraded":
					t.sheds++
				default:
					t.other++
				}
			}
		} else {
			for i := 0; i < pipeline; i++ {
				k := lo + (b*pipeline+i)*6007%span
				cl.QueueGet(false, key(k))
			}
			if err := cl.Flush(); err != nil {
				return err
			}
			for i := 0; i < pipeline; i++ {
				if _, err := cl.ReadValues(nil); err != nil {
					return err
				}
				t.ops++
				t.served++ // a miss is still a served request
			}
		}
	}
	return cl.Quit()
}

// probeRecovery issues single SETs on a fresh connection until one is
// STORED — the half-open probe path exercised end to end — failing if the
// stack cannot recover inside the timeout. The breaker's probe window is
// timed on the DEVICE clock; on the simulator that clock advances only
// with successful I/O (a total outage freezes it), so between rejected
// probes the harness advances a virtual clock itself. On a wall-clock
// backend it just waits.
func probeRecovery(addr string, clk *vtime.Clock, timeout time.Duration) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	cl := memclient.New(nc)
	deadline := time.Now().Add(timeout)
	probe := key(0)
	val := value(0)
	for tries := 0; ; tries++ {
		cl.QueueSet(probe, val, 0, false)
		if err := cl.Flush(); err != nil {
			return err
		}
		status, err := cl.ReadStatus()
		if err != nil {
			return err
		}
		if status == "STORED" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: no recovery after %v (%d probes, last reply %q)", timeout, tries+1, status)
		}
		if clk.Real() {
			time.Sleep(10 * time.Millisecond)
		} else {
			clk.Advance(25 * time.Millisecond)
		}
	}
}
