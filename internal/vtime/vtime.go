// Package vtime provides the clock shared by the flash-device backends and
// the request replayer.
//
// A Clock runs in one of two modes. The default (zero value) is a virtual
// clock: device operations complete on per-channel timelines and the
// replayer advances the clock by a fixed 10 µs inter-arrival gap between
// requests, which makes latency distributions deterministic and immune to
// host scheduling or Go GC pauses (the reproduction hint for this paper
// flags real-device latency skew as the hard part; virtual time is the
// substitution). NewReal returns a clock pinned to the host's monotonic
// wall clock instead — the mode the file-backed device uses so the same
// measurement code paths report real, measured latencies. A real clock
// advances on its own; Advance becomes a no-op on it.
package vtime

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing clock: virtual by default, wall-time
// when built with NewReal. The zero value is a virtual clock at time 0,
// ready to use. Clock is safe for concurrent use.
type Clock struct {
	now      atomic.Int64 // nanoseconds (virtual mode)
	realBase time.Time    // when set, Now tracks time.Since(realBase)
}

// NewReal returns a clock that tracks the host's monotonic wall clock,
// starting at 0 now. Real device backends expose one so `done - start`
// latency arithmetic written for the simulator measures real elapsed time
// unchanged.
func NewReal() *Clock { return &Clock{realBase: time.Now()} }

// Real reports whether the clock tracks wall time.
func (c *Clock) Real() bool { return !c.realBase.IsZero() }

// Now returns the current time on the clock.
func (c *Clock) Now() time.Duration {
	if c.Real() {
		return time.Since(c.realBase)
	}
	return time.Duration(c.now.Load())
}

// Advance moves a virtual clock forward by d (non-negative) and returns the
// new time. On a real clock it is a no-op (wall time advances on its own)
// and returns Now.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic("vtime: negative advance")
	}
	if c.Real() {
		return c.Now()
	}
	return time.Duration(c.now.Add(int64(d)))
}
