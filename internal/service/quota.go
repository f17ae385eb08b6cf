package service

import (
	"sync"
	"time"
)

// quotas is the per-tenant token-bucket admission gate. Each tenant
// owns an independent bucket of `burst` tokens refilled at `rate`
// tokens/second; a request spends one token or is rejected with the
// time until the next token. rate <= 0 disables quotas entirely.
//
// Time is supplied by the owner (a monotonic clock), so tests drive
// the buckets deterministically.
//
// Tenants are whatever strings clients send, so the bucket map is
// bounded: a bucket that has refilled to burst behaves exactly like
// the fresh one take would make, and sweep deletes such buckets.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	sweepAt int // map size at which the next new tenant triggers a sweep
}

type bucket struct {
	tokens float64
	last   time.Time
}

// minSweep is the smallest map size that triggers a sweep, so a few
// tenants never pay for one.
const minSweep = 1024

func newQuotas(rate float64, burst int) *quotas {
	if burst < 1 {
		burst = 1
	}
	return &quotas{rate: rate, burst: float64(burst), buckets: make(map[string]*bucket), sweepAt: minSweep}
}

// level returns b's tokens at now: refilled at rate since b.last, up
// to burst.
func (q *quotas) level(b *bucket, now time.Time) float64 {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		return min(q.burst, b.tokens+dt*q.rate)
	}
	return b.tokens
}

// sweep deletes every bucket that has refilled to burst by now. Under
// a clock that never runs backwards each such bucket is still full
// when its tenant returns, as a fresh bucket is, so no admission
// changes. The next sweep waits until the map has doubled from what is
// left, so sweeping costs O(1) amortized per new tenant, and the map
// holds at most max(minSweep, twice the tenants still refilling at the
// last sweep).
func (q *quotas) sweep(now time.Time) {
	for t, b := range q.buckets {
		if q.level(b, now) >= q.burst {
			delete(q.buckets, t)
		}
	}
	q.sweepAt = max(minSweep, 2*len(q.buckets))
}

// take spends one token from tenant's bucket at time now. On refusal
// it returns the wait until a token accrues — the Retry-After hint.
func (q *quotas) take(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	if q == nil || q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= q.sweepAt {
			q.sweep(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens, b.last = q.level(b, now), now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / q.rate
	return false, time.Duration(need * float64(time.Second))
}
