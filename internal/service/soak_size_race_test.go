//go:build race

package service

// Race-detector builds scale the soak down: the instrumentation costs
// ~10x, and the race coverage does not grow with the request count.
const (
	soakClients           = 4
	soakRequestsPerClient = 120
	// Instrumented clients are slow, so the quota must be tight for
	// rejections to occur at all.
	soakQuotaRate  = 90
	soakQuotaBurst = 2
)

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation inflates allocation counts.
const raceEnabled = true
