package core

// Device-fault circuit breaker: the per-shard health tracker that keeps a
// sick flash device out of the serving path.
//
// The write path is the only part of the cache that *must* touch the device
// to make progress — a GET can always be answered from memory or answered
// with a miss, but a SET eventually needs a flush, and a flush against a
// dead device burns a reserved zone, drops the sealed SG's objects as
// evictions, and returns an error, over and over. Without a breaker, a
// persistent write failure turns every Nth SET into an expensive doomed
// flush and silently bleeds the cache's contents (each failed flush evicts
// the front SG).
//
// With Config.BreakerThreshold > 0, each shard tracks consecutive
// write-path (flush) failures under its own lock and clock:
//
//   - closed → open: BreakerThreshold consecutive flush failures trip the
//     shard into degraded mode. SETs and DELETEs are rejected at the top of
//     the locked write path with cachelib.ErrDegraded — no insertion, no
//     sacrifice, no flush attempt, O(1) under the lock — while GETs keep
//     serving from the in-memory SGs and flash. A successful flush at any
//     point (e.g. a deferred flush enqueued before the trip) resets the
//     failure count and closes the breaker.
//   - open → half-open: after Config.BreakerProbeAfter on the device clock,
//     the next write is admitted as a probe. The probe runs its flush
//     synchronously (even on the SetAsync path) so the device verdict is
//     real; concurrent writes keep getting ErrDegraded while the probe is
//     in flight.
//   - half-open → closed: the probe succeeds (its flush reached flash, or
//     no flush was due — an optimistic close; a later flush failure re-trips
//     within one threshold). Cumulative degraded time accumulates into
//     Stats.DegradedSeconds.
//   - half-open → open: the probe's flush fails; the next probe waits
//     another BreakerProbeAfter. The degraded window continues —
//     Stats.DegradedEntered counts closed→open trips only.
//
// Transient faults are kept off the breaker entirely by the bounded
// append-retry loop (Config.WriteRetries / Config.RetryBackoff): a failed
// Append of a flush window mutates no device or cache state, so it is
// retried in place up to WriteRetries times before the flush fails and the
// failure counts.
// Stats.WriteRetries counts absorbed retries.
//
// Everything is deterministic under a virtual device clock: trips, probe
// windows, and DegradedSeconds move only when the test advances the clock.
// With BreakerThreshold == 0 (the default) every hook in this file is a
// no-op on the hot path, keeping the historical equivalence and determinism
// pins byte-identical.

import (
	"fmt"
	"time"

	"nemo/internal/cachelib"
)

// BreakerState is the device-fault circuit breaker's position.
type BreakerState uint8

// Breaker states: closed (healthy, writes flow), open (degraded, writes
// rejected), half-open (one probe write in flight or admissible).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for diagnostics and the SIGQUIT health dump.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// breaker is the per-shard circuit state, guarded by Cache.mu and timed on
// the device clock.
type breaker struct {
	state       BreakerState
	fails       int           // consecutive flush failures while closed
	windowStart time.Duration // device-clock time the current degraded window began
	nextProbeAt time.Duration // device-clock time the next probe may be admitted
	total       time.Duration // degraded time of completed windows
	probing     bool          // a probe write is in flight
	lastErr     string        // last write-path failure, for diagnostics
}

// breakerEnabled reports whether the circuit breaker is configured on.
func (c *Cache) breakerEnabled() bool { return c.cfg.BreakerThreshold > 0 }

// breakerAllowWriteLocked gates the locked write path (Set/SetAsync/SetMany
// inserts and Delete). It returns (probe, nil) when the write may proceed —
// probe marks it as the half-open probe, which must run its flush
// synchronously — or (false, ErrDegraded) when the shard is degraded.
func (c *Cache) breakerAllowWriteLocked() (probe bool, err error) {
	if !c.breakerEnabled() || c.brk.state == BreakerClosed {
		return false, nil
	}
	now := c.dev.Clock().Now()
	if c.brk.state == BreakerOpen {
		if now < c.brk.nextProbeAt {
			c.stats.DegradedRejects++
			return false, cachelib.ErrDegraded
		}
		c.brk.state = BreakerHalfOpen
	}
	// Half-open: admit exactly one probe at a time.
	if c.brk.probing {
		c.stats.DegradedRejects++
		return false, cachelib.ErrDegraded
	}
	c.brk.probing = true
	return true, nil
}

// breakerWriteDoneLocked settles a probe write when its locked operation
// returns. A probe whose flush failed has already re-opened the breaker via
// breakerFlushFailedLocked; a probe that succeeded — including one that
// triggered no flush at all — closes the breaker optimistically (a later
// flush failure re-trips within one threshold).
func (c *Cache) breakerWriteDoneLocked(probe bool, err error) {
	if !probe {
		return
	}
	c.brk.probing = false
	if err == nil && c.brk.state == BreakerHalfOpen {
		c.breakerCloseLocked()
	}
}

// breakerFlushFailedLocked records one flush failure (called from
// recoverFailedFlushLocked, after WriteErrors is counted).
func (c *Cache) breakerFlushFailedLocked(cause error) {
	c.brk.lastErr = cause.Error()
	if !c.breakerEnabled() {
		return
	}
	now := c.dev.Clock().Now()
	switch c.brk.state {
	case BreakerClosed:
		c.brk.fails++
		if c.brk.fails >= c.cfg.BreakerThreshold {
			c.brk.state = BreakerOpen
			c.brk.windowStart = now
			c.brk.nextProbeAt = now + c.cfg.BreakerProbeAfter
			c.stats.DegradedEntered++
		}
	case BreakerHalfOpen:
		// Probe failed: the degraded window continues; schedule the next
		// probe one interval out.
		c.brk.state = BreakerOpen
		c.brk.nextProbeAt = now + c.cfg.BreakerProbeAfter
	case BreakerOpen:
		// A deferred flush enqueued before the trip failed while open;
		// nothing changes.
	}
}

// breakerFlushOKLocked records one successful flush commit: the device
// proved writable, so the failure run ends and any degraded window closes.
func (c *Cache) breakerFlushOKLocked() {
	c.brk.fails = 0
	if c.brk.state != BreakerClosed {
		c.breakerCloseLocked()
	}
}

// breakerCloseLocked ends the current degraded window.
func (c *Cache) breakerCloseLocked() {
	c.brk.total += c.dev.Clock().Now() - c.brk.windowStart
	c.brk.state = BreakerClosed
	c.brk.fails = 0
	c.brk.probing = false
}

// breakerDegradedLocked returns cumulative degraded time including the
// window in progress.
func (c *Cache) breakerDegradedLocked() time.Duration {
	d := c.brk.total
	if c.brk.state != BreakerClosed {
		d += c.dev.Clock().Now() - c.brk.windowStart
	}
	return d
}

// appendRetry wraps Device.Append with the bounded retry-with-backoff loop
// (Config.WriteRetries). A failed append mutates no device state — the run
// lands whole or not at all, the write pointer does not advance, open-zone
// reservations release — so retrying the run in place is safe on every
// backend. Runs UNLOCKED (build phase); the retry counter is atomic and
// folds into Stats on read.
func (c *Cache) appendRetry(zoneID int, data []byte) (int, time.Duration, error) {
	page, done, err := c.dev.Append(zoneID, data)
	for attempt := 0; err != nil && attempt < c.cfg.WriteRetries; attempt++ {
		c.retries.Add(1)
		if b := c.cfg.RetryBackoff; b > 0 {
			d := b << attempt
			if clk := c.dev.Clock(); clk.Real() {
				time.Sleep(d)
			} else {
				clk.Advance(d)
			}
		}
		page, done, err = c.dev.Append(zoneID, data)
	}
	return page, done, err
}
