package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/pim"
)

// TestAdmissionTokenRelease walks every handler path and checks the
// admission gauge returns to zero: tokens are held only between admit
// and response, and every exit path — success, per-item failure,
// request error, schema reject, quota reject, overload reject,
// draining reject — releases.
func TestAdmissionTokenRelease(t *testing.T) {
	// An unstarted server admits deterministically: no worker drains
	// the queue, so occupancy is exactly what admit placed there.
	cfg := Config{Device: testConfig(t), Shards: 1, QueueDepth: 2}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mkJob := func() *job {
		return &job{reqs: []memory.Request{{Kind: memory.KindRead}}, done: make(chan struct{})}
	}
	j1, j2 := mkJob(), mkJob()
	if err := srv.admit(0, j1); err != nil {
		t.Fatal(err)
	}
	if err := srv.admit(0, j2); err != nil {
		t.Fatal(err)
	}
	if got := srv.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	// Queue full: the third admission must reject without leaking a
	// token.
	if err := srv.admit(0, mkJob()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow admit err = %v, want ErrOverloaded", err)
	}
	if got := srv.Inflight(); got != 2 {
		t.Fatalf("inflight after overload = %d, want 2", got)
	}
	if srv.Counters().RejectedOverload != 1 {
		t.Fatalf("overload not counted: %+v", srv.Counters())
	}

	// Start the workers; the queued jobs complete and their holders
	// release.
	srv.start()
	<-j1.done
	<-j2.done
	srv.release()
	srv.release()
	if got := srv.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	srv.Drain()
	if err := srv.admit(0, mkJob()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admit err = %v, want ErrDraining", err)
	}
	if got := srv.Inflight(); got != 0 {
		t.Fatalf("inflight after draining reject = %d, want 0", got)
	}
}

// TestHandlerPathsReleaseTokens drives the real handlers over HTTP
// through success and every rejection shape, then checks the gauge is
// zero and accepted == completed.
func TestHandlerPathsReleaseTokens(t *testing.T) {
	srv, api := startServer(t, Config{Shards: 1, QuotaRate: 0.001, QuotaBurst: 2})
	ctx := context.Background()
	shard := 0

	// Success path.
	if _, err := api.Execute(ctx, ExecuteRequest{Tenant: "a", Shard: &shard,
		Request: Request{Op: "write", Dst: &Addr{Tile: 1}, Blocksize: 8, Values: []uint64{1}}}); err != nil {
		t.Fatal(err)
	}
	// Request-error path (cross-DBC operand fails in the shard).
	if _, err := api.Execute(ctx, ExecuteRequest{Tenant: "b", Shard: &shard, Request: Request{
		Op: "add", Src: &Addr{Tile: 0, DBC: 15}, Blocksize: 8,
		Operands: []Addr{{Bank: 3, Tile: 1}}, Dst: &Addr{Tile: 2}}}); err == nil {
		t.Fatal("cross-bank exec succeeded")
	}
	// Per-item-error path: batch where one item fails, one succeeds.
	if resp, err := api.Batch(ctx, BatchRequest{Tenant: "c", Shard: &shard, Requests: []Request{
		{Op: "read", Src: &Addr{Tile: 1}},
		{Op: "read", Src: &Addr{Tile: 1, Row: 10_000}},
	}}); err != nil {
		t.Fatal(err)
	} else if resp.Results[1].Error == nil {
		t.Fatal("out-of-range read item did not fail")
	}
	// Schema-reject path: bad op never reaches a queue.
	if _, err := api.Execute(ctx, ExecuteRequest{Tenant: "d", Shard: &shard,
		Request: Request{Op: "frobnicate"}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op err = %v", err)
	}
	// Quota-reject path: tenant a's burst of 2 is spent.
	if _, err := api.Execute(ctx, ExecuteRequest{Tenant: "a", Shard: &shard,
		Request: Request{Op: "read", Src: &Addr{Tile: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := api.Execute(ctx, ExecuteRequest{Tenant: "a", Shard: &shard,
		Request: Request{Op: "read", Src: &Addr{Tile: 1}}}); !errors.Is(err, ErrQuota) {
		t.Fatalf("spent tenant err = %v, want ErrQuota", err)
	}
	// Compile success and compile-error paths.
	if _, err := api.Compile(ctx, CompileRequest{Tenant: "e", Shard: &shard, Source: "%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t2.d0.r0\n"}); err != nil {
		t.Fatal(err)
	}
	if _, err := api.Compile(ctx, CompileRequest{Tenant: "f", Shard: &shard, Source: "this is not pimasm"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad program err = %v, want ErrBadRequest", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for srv.Inflight() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Inflight(); got != 0 {
		t.Fatalf("inflight settled at %d, want 0", got)
	}
	if c := srv.Counters(); c.Accepted != c.Completed {
		t.Fatalf("accepted %d != completed %d", c.Accepted, c.Completed)
	}
}

// TestCancelledJobsDoNotRun: a job whose client went away while it
// queued is dropped before it executes (a window job before the merge,
// a compile job before Compile) and counted Cancelled, not Completed.
func TestCancelledJobsDoNotRun(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	row := pim.MustPackLanes([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, 8, 64)
	target := isa.Addr{Tile: 1, Row: 2}
	kept := isa.Addr{Tile: 1, Row: 3}
	for _, tc := range []struct {
		name string
		job  *job
	}{
		{"window", &job{ctx: gone, reqs: []memory.Request{{Kind: memory.KindWrite, Dst: target, Row: row}}}},
		{"compile", &job{ctx: gone, compile: &CompileRequest{Source: "%a = li 5 bs=8\nstore %a, b0.s0.t1.d0.r2\n"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Unstarted workers: the client is gone before the job runs.
			srv, err := newServer(Config{Device: testConfig(t), Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			tc.job.done = make(chan struct{})
			live := &job{ctx: context.Background(), reqs: []memory.Request{{Kind: memory.KindWrite, Dst: kept, Row: row}}, done: make(chan struct{})}
			for _, j := range []*job{tc.job, live} {
				if err := srv.admit(0, j); err != nil {
					t.Fatal(err)
				}
				defer srv.release()
			}
			srv.start()
			srv.Drain()
			<-tc.job.done
			if !errors.Is(tc.job.cerr, context.Canceled) {
				t.Errorf("dropped job err = %v, want context.Canceled", tc.job.cerr)
			}
			mem := srv.Pool().Shard(0)
			if got, err := mem.ReadRow(target); err != nil || got.OnesCount() != 0 {
				t.Errorf("cancelled job's target row holds %d set bits (err %v), want untouched", got.OnesCount(), err)
			}
			if got, err := mem.ReadRow(kept); err != nil || !got.Equal(row) {
				t.Errorf("live job's row was not written (err %v)", err)
			}
			c := srv.Counters()
			if c.Cancelled != 1 || c.Accepted != c.Completed+c.Cancelled {
				t.Errorf("counters %+v: want Cancelled 1 and Accepted == Completed + Cancelled", c)
			}
		})
	}
}
