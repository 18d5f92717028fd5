//go:build race

package cachelib

// raceDetectorEnabled reports whether the race detector is instrumenting
// this build; allocation-count pins are skipped under -race because the
// instrumentation itself allocates.
const raceDetectorEnabled = true
