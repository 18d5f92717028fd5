package cachelib

import (
	"time"

	"nemo/internal/metrics"
	"nemo/internal/trace"
)

// interArrival is the virtual time between two replayed requests: 10 µs ≈
// 100 K req/s, enough to expose write interference.
const interArrival = 10 * time.Microsecond

// ReplayConfig controls a replay run.
type ReplayConfig struct {
	// Ops is the number of requests to issue.
	Ops int
	// Clock, when set, is advanced by interArrival per request.
	Clock Clock
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

// ReplayResult aggregates what the replayer observes of one run. Read
// latency is not among it: an engine records its own, and a caller that
// wants it reads the engine's histogram.
type ReplayResult struct {
	Engine   string
	Final    Stats
	Miss     *metrics.Series // windowed miss ratio vs ops
	Timeline []TimelinePoint
}

// Replay issues cfg.Ops requests from the stream against the engine — a GET
// that misses is demand-filled with SetAsync(key, value), the look-aside
// pattern; a mixed stream's SETs and DELETEs are issued as they come — and,
// once the engine has drained, collects the standard metrics.
func Replay(e Engine, s trace.Stream, cfg ReplayConfig) (ReplayResult, error) {
	res := ReplayResult{Engine: e.Name()}
	every := cfg.sampleEvery()
	missWin := metrics.NewRatioWindow(uint64(every))
	// One request is replayed by the routine the parallel replayer uses;
	// this loop keeps only what is the serial replayer's: the clock advance,
	// the miss window and the timeline.
	var req trace.Request
	for i := 0; i < cfg.Ops; i++ {
		if cfg.Clock != nil {
			cfg.Clock.Advance(interArrival)
		}
		s.Next(&req)
		hit, err := dispatch(e, &req)
		if err != nil {
			return res, err
		}
		if req.Op == trace.KindGet {
			missWin.Observe(!hit)
		}
		if (i+1)%every == 0 {
			st := e.Stats()
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
	if err := e.Drain(); err != nil {
		return res, err
	}
	res.Final = e.Stats()
	res.Miss = missWin.Series()
	return res, nil
}
