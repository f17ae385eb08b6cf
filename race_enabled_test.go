//go:build race

package coruscant

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation inflates per-call allocation counts;
// the allocation gates in alloc_budget_test.go only pin counts in
// non-race builds.
const raceEnabled = true
