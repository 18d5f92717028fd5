package device

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/vtime"
)

// ErrInjected is the default error a FaultPlan injects. Errors returned by
// faulted operations wrap it, so callers can errors.Is against one sentinel
// regardless of which rule fired.
var ErrInjected = errors.New("device: injected fault")

// FaultOp selects which device operations a FaultRule matches. Reads match
// ReadPage/ReadPages and writes match AppendPage/Append, both per page: a
// run of n pages is n draws, in page order. A failed page fails its whole
// run — an Append stores none of it, a ReadPages reads no further —
// so an ErrRate applies per page but fails runs more often the longer they
// are.
type FaultOp uint8

// Fault operation classes. Combine with | to match both.
const (
	FaultRead FaultOp = 1 << iota
	FaultWrite
)

// String renders the op mask for diagnostics.
func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultRead | FaultWrite:
		return "read|write"
	default:
		return fmt.Sprintf("FaultOp(%d)", uint8(op))
	}
}

// FaultRule is one composable clause of a FaultPlan. A matching operation
// first pays the rule's Latency, then fails with probability ErrRate.
// Rules compose: every rule is evaluated in plan order for every operation;
// latencies accumulate and the first injected error wins.
type FaultRule struct {
	// Op is the operation class the rule matches: FaultRead, FaultWrite, or
	// both. Required (a zero Op matches nothing).
	Op FaultOp
	// Zones restricts the rule to the listed zone IDs (reads are attributed
	// to the zone containing the page). Nil/empty matches every zone.
	Zones []int
	// ErrRate is the probability a matching operation fails, 0..1. The
	// draw comes from the plan's seeded generator, so two plans built with
	// the same seed and rules fault the same positions of an identical
	// operation sequence on any backend. 0 means never fail — a
	// latency-only rule.
	ErrRate float64
	// SkipN lets the first N matching operations through before the rule
	// starts injecting (delayed onset).
	SkipN int
	// FailN, when > 0, retires the rule after it has injected N errors:
	// fail-N-then-recover. 0 means never retire.
	FailN int
	// Latency is added to every matching, non-retired operation: a real
	// sleep on wall-clock backends (filedev), a clock advance on the
	// virtual-time simulator.
	Latency time.Duration
	// Err is the error injected (wrapped with op detail). Nil means
	// ErrInjected.
	Err error
}

func (r *FaultRule) matches(op FaultOp, zone int) bool {
	if r.Op&op == 0 {
		return false
	}
	if len(r.Zones) == 0 {
		return true
	}
	for _, z := range r.Zones {
		if z == zone {
			return true
		}
	}
	return false
}

// ruleState is a FaultRule plus its per-arm mutable counters, guarded by the
// plan mutex.
type ruleState struct {
	FaultRule
	seen     int // matching ops observed (drives SkipN)
	injected int // errors injected (drives FailN retirement)
}

// FaultStats counts what an armed FaultPlan has done.
type FaultStats struct {
	// Reads and Writes count matching operations evaluated (post-arm).
	Reads, Writes uint64
	// InjectedReads and InjectedWrites count operations failed.
	InjectedReads, InjectedWrites uint64
	// DelayedOps counts operations that paid added latency.
	DelayedOps uint64
}

// FaultPlan compiles a list of FaultRules into the SetReadFault/SetWriteFault
// hooks of a Device. One plan arms one device at a time; Arm installs the
// hooks, Disarm removes them. The plan is deterministic: rule evaluation
// order, per-rule counters, and the seeded error-rate generator depend only
// on the sequence of matching operations, so a serial workload faults
// identically on flashsim and filedev (pinned by the devtest parity test).
//
// Plans are safe for concurrent device use; decisions serialize on an
// internal mutex, which also makes the rate generator's draw order follow
// the device's operation order.
type FaultPlan struct {
	mu    sync.Mutex
	rules []*ruleState
	rng   uint64
	seed  uint64

	dev   Device       // armed device (nil when disarmed)
	clock *vtime.Clock // armed device's clock, for latency injection

	reads, writes       atomic.Uint64
	injReads, injWrites atomic.Uint64
	delayed             atomic.Uint64
}

// NewFaultPlan builds a plan over the given rules. seed drives the ErrRate
// generator; 0 is a valid (fixed) seed.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	p := &FaultPlan{seed: seed}
	p.rules = make([]*ruleState, len(rules))
	for i, r := range rules {
		p.rules[i] = &ruleState{FaultRule: r}
	}
	p.resetLocked()
	return p
}

// resetLocked rewinds per-arm state: rule counters and the rate generator.
func (p *FaultPlan) resetLocked() {
	// splitmix64 of the seed so seed 0 and seed 1 diverge immediately.
	z := p.seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	p.rng = z ^ (z >> 31)
	if p.rng == 0 {
		p.rng = 1
	}
	for _, rs := range p.rules {
		rs.seen, rs.injected = 0, 0
	}
}

// next returns a uniform draw in [0,1) from the plan's xorshift64 generator.
// Caller holds p.mu.
func (p *FaultPlan) next() float64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return float64(x>>11) / (1 << 53)
}

// Arm installs the plan on d, replacing any fault hooks already set, and
// rewinds the plan's per-arm state (rule counters, rate generator) so
// re-arming replays the same fault sequence. A plan arms one device at a
// time; arm on a second device disarms the first.
func (p *FaultPlan) Arm(d Device) {
	p.mu.Lock()
	if p.dev != nil && p.dev != d {
		p.dev.SetReadFault(nil)
		p.dev.SetWriteFault(nil)
	}
	p.dev = d
	p.clock = d.Clock()
	p.resetLocked()
	p.mu.Unlock()
	// The hooks read only what they capture: a hook still in flight on this
	// or an earlier device must not see a later Arm's geometry.
	pagesPerZone := d.PagesPerZone()
	d.SetReadFault(func(page int) error {
		return p.decide(FaultRead, page/pagesPerZone)
	})
	d.SetWriteFault(func(zone int) error {
		return p.decide(FaultWrite, zone)
	})
}

// Disarm removes the plan's hooks from the armed device. Safe to call when
// not armed.
func (p *FaultPlan) Disarm() {
	p.mu.Lock()
	d := p.dev
	p.dev = nil
	p.mu.Unlock()
	if d != nil {
		d.SetReadFault(nil)
		d.SetWriteFault(nil)
	}
}

// decide evaluates every rule against one operation: accumulates latency,
// returns the first injected error.
func (p *FaultPlan) decide(op FaultOp, zone int) error {
	var delay time.Duration
	var injected error

	p.mu.Lock()
	clock := p.clock
	for _, rs := range p.rules {
		if !rs.matches(op, zone) {
			continue
		}
		rs.seen++
		if rs.seen <= rs.SkipN {
			continue
		}
		if rs.FailN > 0 && rs.injected >= rs.FailN {
			continue // retired: recovered after its N failures
		}
		delay += rs.Latency
		if injected == nil && rs.ErrRate > 0 && p.next() < rs.ErrRate {
			rs.injected++
			cause := rs.Err
			if cause == nil {
				cause = ErrInjected
			}
			injected = fmt.Errorf("%w (%s zone %d)", cause, op, zone)
		}
	}
	p.mu.Unlock()

	if op == FaultRead {
		p.reads.Add(1)
		if injected != nil {
			p.injReads.Add(1)
		}
	} else {
		p.writes.Add(1)
		if injected != nil {
			p.injWrites.Add(1)
		}
	}
	if delay > 0 && clock != nil {
		p.delayed.Add(1)
		if clock.Real() {
			time.Sleep(delay)
		} else {
			clock.Advance(delay)
		}
	}
	return injected
}

// Stats returns a snapshot of what the plan has done since construction.
func (p *FaultPlan) Stats() FaultStats {
	return FaultStats{
		Reads:          p.reads.Load(),
		Writes:         p.writes.Load(),
		InjectedReads:  p.injReads.Load(),
		InjectedWrites: p.injWrites.Load(),
		DelayedOps:     p.delayed.Load(),
	}
}
