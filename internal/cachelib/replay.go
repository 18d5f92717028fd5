package cachelib

import (
	"fmt"
	"time"

	"nemo/internal/admission"
	"nemo/internal/metrics"
	"nemo/internal/trace"
)

// ReplayConfig controls a replay run.
type ReplayConfig struct {
	// Ops is the number of GET requests to issue.
	Ops int
	// InterArrival is the virtual time advanced between requests
	// (default 10 µs ≈ 100 K req/s, enough to expose write interference).
	InterArrival time.Duration
	// MissFill, when true (the default via Replay), issues Set(key, value)
	// after every GET miss — the demand-fill pattern of a look-aside cache.
	MissFill bool
	// Clock, when set, is advanced by InterArrival per request.
	Clock Clock
	// Admission gates demand fills; nil admits everything.
	Admission admission.Policy
	// Options applies the Engine v2 per-request knobs (TTL, admission
	// hint, no-fill) to every request of the run. The zero value is the
	// classic v1 behavior.
	Options Options
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.InterArrival == 0 {
		c.InterArrival = 10 * time.Microsecond
	}
	return c
}

// sampleEvery is the period, in requests, of both the miss-ratio window and
// the timeline: 64 samples a run.
func (c ReplayConfig) sampleEvery() int {
	if c.Ops < 64 {
		return 1
	}
	return c.Ops / 64
}

// TimelinePoint is one periodic sample of engine state during replay.
type TimelinePoint struct {
	Ops               uint64
	VTime             time.Duration
	ALWA              float64
	TotalWA           float64
	MissRatio         float64 // cumulative
	FlashBytesWritten uint64
}

// ReplayResult aggregates everything an experiment needs from one run.
type ReplayResult struct {
	Engine   string
	Final    Stats
	Miss     *metrics.Series // windowed miss ratio vs ops
	Timeline []TimelinePoint
	Latency  metrics.Snapshot
}

// Replay issues cfg.Ops GET requests from the stream against the engine,
// demand-filling on miss, and collects the standard metrics.
func Replay(e Engine, s trace.Stream, cfg ReplayConfig) (ReplayResult, error) {
	cfg = cfg.withDefaults()
	cfg.MissFill = true
	return replay(e, s, cfg)
}

// ReplayRaw is Replay without forcing demand-fill (used by insert-only
// experiments, where every request is a Set).
func ReplayRaw(e Engine, s trace.Stream, cfg ReplayConfig) (ReplayResult, error) {
	cfg = cfg.withDefaults()
	return replay(e, s, cfg)
}

// admitWrite applies the per-request admission hint over the replay-level
// policy: Force bypasses the policy, Bypass rejects outright, Default defers.
func admitWrite(opts Options, pol admission.Policy, key []byte, size int) bool {
	switch opts.Admission {
	case HintForce:
		return true
	case HintBypass:
		return false
	}
	return pol == nil || pol.Admit(key, size)
}

// expiryTracker enforces Options.TTL from the harness side: the replay owns
// the virtual clock, so engines need no per-object timestamps. A GET past
// the deadline deletes the object first and therefore misses.
type expiryTracker struct {
	ttl      time.Duration
	clock    Clock
	deadline map[string]time.Duration
}

func newExpiryTracker(opts Options, clock Clock) *expiryTracker {
	if opts.TTL <= 0 || clock == nil {
		return nil
	}
	return &expiryTracker{ttl: opts.TTL, clock: clock, deadline: make(map[string]time.Duration)}
}

// expireIfDue deletes key from the engine when its TTL has lapsed.
func (x *expiryTracker) expireIfDue(d Deleter, key []byte) error {
	if x == nil {
		return nil
	}
	dl, ok := x.deadline[string(key)]
	if !ok || x.clock.Now() <= dl {
		return nil
	}
	delete(x.deadline, string(key))
	return d.Delete(key)
}

// wrote records a fresh write's deadline.
func (x *expiryTracker) wrote(key []byte) {
	if x != nil {
		x.deadline[string(key)] = x.clock.Now() + x.ttl
	}
}

// deleted forgets a key's deadline.
func (x *expiryTracker) deleted(key []byte) {
	if x != nil {
		delete(x.deadline, string(key))
	}
}

func replay(e Engine, s trace.Stream, cfg ReplayConfig) (ReplayResult, error) {
	v2 := Adapt(e)
	res := ReplayResult{Engine: v2.Name()}
	if cfg.Options.TTL > 0 && cfg.Clock == nil {
		return res, fmt.Errorf("cachelib: Options.TTL requires a Clock (expiry runs on the replay's virtual clock)")
	}
	every := cfg.sampleEvery()
	missWin := metrics.NewRatioWindow(uint64(every))
	// One request is replayed by the routine the parallel replayer uses;
	// this loop keeps only what is the serial replayer's: the clock advance,
	// the miss window and the timeline.
	rw := replayWorker{
		v2:  v2,
		cfg: &ParallelReplayConfig{Options: cfg.Options, Admission: cfg.Admission},
		exp: newExpiryTracker(cfg.Options, cfg.Clock),
	}
	var req trace.Request
	for i := 0; i < cfg.Ops; i++ {
		if cfg.Clock != nil {
			cfg.Clock.Advance(cfg.InterArrival)
		}
		s.Next(&req)
		if req.Op == trace.KindGet && !cfg.MissFill {
			// Insert-only replay (ReplayRaw): every GET is a plain Set.
			if err := v2.Set(req.Key, req.Value); err != nil {
				return res, err
			}
		} else {
			hit, err := rw.dispatchOne(&req)
			if err != nil {
				return res, err
			}
			if req.Op == trace.KindGet {
				missWin.Observe(!hit)
			}
		}
		if (i+1)%every == 0 {
			st := v2.Stats()
			var vt time.Duration
			if cfg.Clock != nil {
				vt = cfg.Clock.Now()
			}
			res.Timeline = append(res.Timeline, TimelinePoint{
				Ops:               uint64(i + 1),
				VTime:             vt,
				ALWA:              st.ALWA(),
				TotalWA:           st.TotalWA(),
				MissRatio:         st.MissRatio(),
				FlashBytesWritten: st.FlashBytesWritten,
			})
		}
	}
	res.Final = v2.Stats()
	res.Miss = missWin.Series()
	res.Latency = v2.ReadLatency().Snapshot()
	return res, nil
}
