//go:build race

package compile

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation inflates per-call allocation counts
// (and makes sync.Pool drop items at random), so the allocation tests
// only pin counts in non-race builds.
const raceEnabled = true
