//go:build race

package experiments

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = true
