package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/params"
	"repro/internal/telemetry"
)

// gateSink is a telemetry sink whose Emit blocks once armed, until
// open is closed: the shard worker that emits then parks inside
// ExecuteBatch and drains nothing from its queue.
type gateSink struct {
	armed  atomic.Bool
	once   sync.Once
	parked chan struct{} // closed by the first Emit while armed
	open   chan struct{}
}

func (g *gateSink) Emit(telemetry.Event) {
	if !g.armed.Load() {
		return
	}
	g.once.Do(func() { close(g.parked) })
	<-g.open
}

func (g *gateSink) Close() error { return nil }

// burstOverload parks shard 0's worker inside ExecuteBatch on a gated
// read batch, fires 32 concurrent heavy read batches at the shard, and
// opens the gate once each of them was queued or rejected. The parked
// worker drains nothing, so all but QueueDepth of the burst find the
// queue full: overload is certain, not left to host scheduling.
// Returns the overload rejection count. Reads in bank 3 touch no soak
// client's state, so the bit-identity mirrors stay valid.
func burstOverload(t *testing.T, srv *Server, base string, device params.Config) uint64 {
	t.Helper()
	gate := &gateSink{parked: make(chan struct{}), open: make(chan struct{})}
	srv.Pool().Shard(0).SetTelemetry(telemetry.NewRecorder(device, gate))
	api := NewClient(base, nil)
	ctx := context.Background()
	shard := 0
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Op: "read", Src: &Addr{Bank: 3, Tile: 1, Row: i}}
	}
	batch := func(tenant string) error {
		_, err := api.Batch(ctx, BatchRequest{Tenant: tenant, Shard: &shard, Requests: reqs})
		return err
	}

	gate.armed.Store(true)
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- batch("burst-park") }()
	<-gate.parked

	const burst = 32
	before := srv.Counters()
	var rejected atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := batch(fmt.Sprintf("burst-%d", i))
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			} else if err != nil {
				t.Errorf("burst request failed oddly: %v", err)
			}
		}(i)
	}
	// Every burst request is settled once the server has queued or
	// rejected it; the queued ones wait for the worker until the gate
	// opens.
	settled := func() bool {
		c := srv.Counters()
		return c.Accepted+c.RejectedOverload+c.RejectedQuota-
			before.Accepted-before.RejectedOverload-before.RejectedQuota == burst
	}
	deadline := time.Now().Add(30 * time.Second)
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate.open)
	wg.Wait()
	if err := <-parkedErr; err != nil {
		t.Errorf("parked batch: %v", err)
	}
	return rejected.Load()
}

// TestSoakMixedTraffic is the coruscantd acceptance soak: concurrent
// clients fire a mixed stream (row writes, bulk-bitwise and arithmetic
// executes, multi-op batches, spot-check reads, compiled CNN-style
// kernels) at a multi-shard server sized to exercise backpressure,
// with per-tenant quotas tight enough to reject. Every row a client
// reads back is compared bit-for-bit against that client's private
// serial mirror; then the server drains and must account for every
// admitted request.
func TestSoakMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	device := testConfig(t)
	cfg := Config{
		Device: device,
		Shards: 2,
		// Shallow queues + eager windows: overload rejections are part
		// of the acceptance criteria, and coalescing still merges
		// whatever is queued.
		QueueDepth:  2,
		CoalesceMax: 8,
		// Per-tenant buckets sized (per build tag) so quota rejections
		// occur while retries still finish the soak promptly.
		QuotaRate:  soakQuotaRate,
		QuotaBurst: soakQuotaBurst,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadConfig{
		Base:     ts.URL,
		Device:   device,
		Shards:   cfg.Shards,
		Clients:  soakClients,
		Requests: soakRequestsPerClient,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d clients, %d ok (%.0f req/s), %d bit-checks, %d mismatches, quota rej %d, overload rej %d, retries %d, errors %d, p50 %v p95 %v",
		rep.Clients, rep.Sent, rep.ReqPerS, rep.BitChecks, rep.Mismatch,
		rep.QuotaRejected, rep.OverloadRejected, rep.Retries, rep.Errors, rep.P50, rep.P95)

	if rep.Mismatch != 0 {
		t.Fatalf("%d bit-identity mismatches against serial execution", rep.Mismatch)
	}
	if rep.BitChecks == 0 {
		t.Fatal("soak performed no bit-identity checks")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d non-backpressure errors", rep.Errors)
	}
	wantSent := uint64(soakClients * soakRequestsPerClient)
	if rep.Sent != wantSent {
		t.Fatalf("sent %d, want %d (every request must eventually land)", rep.Sent, wantSent)
	}
	if rep.QuotaRejected == 0 {
		t.Fatal("soak never hit a quota rejection; quotas untested")
	}

	// Backpressure phase: a single-core host serializes the organic
	// handlers too well to overflow a queue by accident, so hold shard
	// 0's worker and flood its queue with one concurrent burst
	// (distinct tenants, read-only, in a bank no soak client owns).
	burst := burstOverload(t, srv, ts.URL, device)
	t.Logf("burst: %d overload rejections", burst)
	overload := rep.OverloadRejected + burst
	if overload == 0 {
		t.Fatal("queue backpressure never observed; admission control untested")
	}
	if srv.Counters().RejectedOverload == 0 {
		t.Fatal("server did not count its overload rejections")
	}

	// Graceful drain after the storm: everything admitted was answered.
	srv.Drain()
	c := srv.Counters()
	if c.Accepted != c.Completed {
		t.Fatalf("drain lost work: accepted %d != completed %d", c.Accepted, c.Completed)
	}
	if srv.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", srv.Inflight())
	}
	if c.CoalescedWindows == 0 {
		t.Fatal("no window ever coalesced; coalescing untested")
	}
}
