package metrics

// RatioWindow tracks a hit/total ratio over fixed-size windows of events and
// records one series point per completed window. It backs the miss-ratio
// trend (Figure 16) and the passive-migration fraction trend (Figure 6).
type RatioWindow struct {
	WindowSize uint64
	series     Series

	x     float64 // cumulative event count used as the x axis
	hits  uint64
	total uint64
}

// NewRatioWindow returns a tracker that emits one point per windowSize
// events. windowSize must be ≥ 1.
func NewRatioWindow(windowSize uint64) *RatioWindow {
	if windowSize == 0 {
		windowSize = 1
	}
	return &RatioWindow{WindowSize: windowSize}
}

// Observe records one event; hit selects the numerator.
func (w *RatioWindow) Observe(hit bool) {
	w.total++
	if hit {
		w.hits++
	}
	if w.total >= w.WindowSize {
		w.x += float64(w.total)
		w.series.Add(w.x, float64(w.hits)/float64(w.total))
		w.hits, w.total = 0, 0
	}
}

// Series returns the completed-window points recorded so far.
func (w *RatioWindow) Series() *Series { return &w.series }
