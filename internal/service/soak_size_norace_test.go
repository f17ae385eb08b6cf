//go:build !race

package service

// Full soak size: >= 10k total requests from >= 4 concurrent clients
// (the acceptance floor of the coruscantd design).
const (
	soakClients           = 6
	soakRequestsPerClient = 1700
	// Tight enough that bursty clients hit quota rejections, loose
	// enough that retries finish the soak promptly.
	soakQuotaRate  = 700
	soakQuotaBurst = 3
)

// raceEnabled reports whether this binary was built with the race
// detector, whose instrumentation inflates allocation counts.
const raceEnabled = false
