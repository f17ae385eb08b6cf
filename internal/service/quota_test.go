package service

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refQuotas is the token bucket of quotas without eviction: every
// tenant keeps its bucket forever.
type refQuotas struct {
	rate, burst float64
	buckets     map[string]*bucket
}

func (r *refQuotas) take(tenant string, now time.Time) (bool, time.Duration) {
	b := r.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: r.burst, last: now}
		r.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / r.rate * float64(time.Second))
}

// TestQuotaStateBounded drives 200k distinct tenants on a virtual
// clock, mixed with bursts from recent and long-idle tenants: the
// bucket map stays within minSweep entries, and every admission,
// rejection and Retry-After matches a reference that never evicts.
func TestQuotaStateBounded(t *testing.T) {
	const tenants = 200_000
	q := newQuotas(1000, 3)
	ref := &refQuotas{rate: 1000, burst: 3, buckets: map[string]*bucket{}}
	rng := rand.New(rand.NewSource(7))
	now := time.Unix(0, 0)
	admits, rejects, biggest := 0, 0, 0
	for next := 0; next < tenants; {
		var id int
		switch r := rng.Intn(8); {
		case r < 4 || next == 0:
			id = next
			next++
		case r < 7: // one of the last few tenants, often still refilling
			id = next - 1 - rng.Intn(min(next, 4))
		default: // any earlier tenant, most likely long since evicted
			id = rng.Intn(next)
		}
		tenant := fmt.Sprintf("tenant-%d", id)
		now = now.Add(time.Duration(rng.Intn(200)) * time.Microsecond)
		// A burst of up to four requests at one instant spends a bucket
		// below one token, so a bucket that differs from the
		// reference's shows in an admission or a Retry-After.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			ok, wait := q.take(tenant, now)
			wantOK, wantWait := ref.take(tenant, now)
			if ok != wantOK || wait != wantWait {
				t.Fatalf("%s at %v: got (%v, %v), reference (%v, %v)", tenant, now.Sub(time.Unix(0, 0)), ok, wait, wantOK, wantWait)
			}
			if ok {
				admits++
			} else {
				rejects++
			}
		}
		biggest = max(biggest, len(q.buckets))
	}
	if biggest > minSweep {
		t.Errorf("bucket map reached %d entries, want at most %d", biggest, minSweep)
	}
	if admits == 0 || rejects == 0 {
		t.Errorf("admits %d, rejects %d: the traffic must exercise both", admits, rejects)
	}
	t.Logf("%d admits, %d rejects, map at most %d of %d tenants", admits, rejects, biggest, len(ref.buckets))
}
