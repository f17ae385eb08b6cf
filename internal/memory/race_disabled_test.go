//go:build !race

package memory

// raceEnabled reports whether this binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
