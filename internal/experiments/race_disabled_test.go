//go:build !race

package experiments

// raceEnabled reports whether the race detector is instrumenting this build;
// the replay experiments of TestPaperFidelity are skipped under -race, where
// their 30 s become 7 minutes and find nothing: each is one goroutine.
const raceEnabled = false
