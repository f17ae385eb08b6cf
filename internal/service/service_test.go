package service

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// testConfig is the small soak geometry: 4 banks so tests can spread
// clients, narrow tracks so rows stay cheap.
func testConfig(t *testing.T) params.Config {
	t.Helper()
	cfg := params.DefaultConfig()
	cfg.Geometry.Banks = 4
	cfg.Geometry.SubarraysPerBank = 2
	cfg.Geometry.TrackWidth = 64
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// startServer spins a server and an httptest front end, torn down in
// order (listener first, then drain) at cleanup.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	cfg.Device = testConfig(t)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, NewClient(ts.URL, ts.Client())
}

func TestExecuteRoundTrip(t *testing.T) {
	srv, api := startServer(t, Config{Shards: 2})
	ctx := context.Background()

	// Write two operand rows, add them in the PIM DBC, read the result
	// back — and check the served bits against a direct serial run.
	a := Addr{Bank: 1, Tile: 1, DBC: 0, Row: 0}
	b := Addr{Bank: 1, Tile: 1, DBC: 0, Row: 1}
	dst := Addr{Bank: 1, Tile: 2, DBC: 0, Row: 0}
	pimDBC := Addr{Bank: 1, Tile: 0, DBC: 15}
	va := []uint64{3, 250, 7, 9, 11, 13, 15, 17}
	vb := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	shard := 1

	for _, req := range []Request{
		{Op: "write", Dst: &a, Blocksize: 8, Values: va},
		{Op: "write", Dst: &b, Blocksize: 8, Values: vb},
	} {
		if _, err := api.Execute(ctx, ExecuteRequest{Shard: &shard, Request: req}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := api.Execute(ctx, ExecuteRequest{Shard: &shard, Request: Request{
		Op: "add", Src: &pimDBC, Blocksize: 8, Operands: []Addr{a, b}, Dst: &dst,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		want := (va[i] + vb[i]) & 0xff
		if got.Values[i] != want {
			t.Fatalf("lane %d = %d, want %d", i, got.Values[i], want)
		}
	}

	// The read must return the stored result bit-for-bit vs a serial
	// in-process run of the same ops.
	rd, err := api.Execute(ctx, ExecuteRequest{Shard: &shard, Request: Request{Op: "read", Src: &dst}})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := memory.New(srv.cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	rowA, _ := pim.PackLanes(va, 8, 64)
	rowB, _ := pim.PackLanes(vb, 8, 64)
	if err := mirror.WriteRow(a.isa(), rowA); err != nil {
		t.Fatal(err)
	}
	if err := mirror.WriteRow(b.isa(), rowB); err != nil {
		t.Fatal(err)
	}
	mreq, err := Request{Op: "add", Src: &pimDBC, Blocksize: 8, Operands: []Addr{a, b}, Dst: &dst}.toMemory(srv.cfg.Device, pim.PackLanes)
	if err != nil {
		t.Fatal(err)
	}
	if res := mirror.ExecuteBatch([]memory.Request{mreq}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	want, err := mirror.ReadRow(dst.isa())
	if err != nil {
		t.Fatal(err)
	}
	gotRow, err := rd.Row.row()
	if err != nil {
		t.Fatal(err)
	}
	if gotRow.N != want.N || len(gotRow.Words) != len(want.Words) {
		t.Fatalf("row shape %d/%d, want %d/%d", gotRow.N, len(gotRow.Words), want.N, len(want.Words))
	}
	for i := range want.Words {
		if gotRow.Words[i] != want.Words[i] {
			t.Fatalf("word %d = %#x, want %#x", i, gotRow.Words[i], want.Words[i])
		}
	}
}

func TestBatchAndCompile(t *testing.T) {
	_, api := startServer(t, Config{Shards: 1})
	ctx := context.Background()
	shard := 0

	// Seed rows for the compiled kernel and batch. Multiplicative ops
	// want operands within blocksize/2 bits, so keep values under 16.
	for r := 0; r < 3; r++ {
		vals := make([]uint64, 8)
		for i := range vals {
			vals[i] = uint64((r*8+i)%13 + 1)
		}
		if _, err := api.Execute(ctx, ExecuteRequest{Shard: &shard, Request: Request{
			Op: "write", Dst: &Addr{Tile: 1, DBC: 0, Row: r}, Blocksize: 8, Values: vals,
		}}); err != nil {
			t.Fatal(err)
		}
	}

	pimDBC := Addr{Tile: 0, DBC: 15}
	resp, err := api.Batch(ctx, BatchRequest{Shard: &shard, Requests: []Request{
		{Op: "mult", Src: &pimDBC, Blocksize: 8,
			Operands: []Addr{{Tile: 1, DBC: 0, Row: 0}, {Tile: 1, DBC: 0, Row: 1}},
			Dst:      &Addr{Tile: 2, DBC: 0, Row: 0}},
		{Op: "read", Src: &Addr{Tile: 2, DBC: 0, Row: 0}, Blocksize: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	for i, item := range resp.Results {
		if e := item.Err(); e != nil {
			t.Fatalf("item %d: %v", i, e)
		}
	}
	// mult then read must agree: lane 0 is 1 * 9.
	if resp.Results[1].Values[0] != 9 {
		t.Fatalf("read lane 0 = %d, want 9", resp.Results[1].Values[0])
	}

	cres, err := api.Compile(ctx, CompileRequest{Shard: &shard, Level: 2, Source: fmaKernel})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Outputs) != 1 {
		t.Fatalf("outputs = %d, want 1", len(cres.Outputs))
	}
	// fma lane 0: 1*9 + 4 = 13.
	if cres.Outputs[0].Values[0] != 13 {
		t.Fatalf("compiled fma lane 0 = %d, want 13", cres.Outputs[0].Values[0])
	}
}

// fmaKernel is a one-op pimasm program over rows 0–2 of b0.s0.t1.d0.
const fmaKernel = `
%x = load b0.s0.t1.d0.r0
%w = load b0.s0.t1.d0.r1
%b = load b0.s0.t1.d0.r2
%y = fma %x, %w, %b bs=8
store %y, b0.s0.t2.d1.r0
`

// TestCompileCostWithoutTelemetry: with telemetry off, a compile reply
// still reports its plan's cycles and makespan — every shard memory
// records — and they equal a mirror memory's recorder deltas for the
// same plan run from the same state.
func TestCompileCostWithoutTelemetry(t *testing.T) {
	srv, api := startServer(t, Config{Shards: 1, Telemetry: false})
	ctx := context.Background()
	shard := 0
	mirror, err := memory.New(srv.cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	width := srv.cfg.Device.Geometry.TrackWidth
	for r := 0; r < 3; r++ {
		vals := make([]uint64, 8)
		for i := range vals {
			vals[i] = uint64((r*8+i)%13 + 1)
		}
		dst := Addr{Tile: 1, DBC: 0, Row: r}
		if _, err := api.Execute(ctx, ExecuteRequest{Shard: &shard, Request: Request{
			Op: "write", Dst: &dst, Blocksize: 8, Values: vals,
		}}); err != nil {
			t.Fatal(err)
		}
		if err := mirror.WriteRow(dst.isa(), pim.MustPackLanes(vals, 8, width)); err != nil {
			t.Fatal(err)
		}
	}

	cres, err := api.Compile(ctx, CompileRequest{Shard: &shard, Level: 2, Source: fmaKernel})
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Compile(fmaKernel, srv.cfg.Device, compile.Options{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := mirror.Recorder()
	cycles0, span0 := rec.Cycle(), rec.Makespan()
	if err := res.Plan.Run(mirror); err != nil {
		t.Fatal(err)
	}
	if cres.Cycles == 0 || cres.Cycles != rec.Cycle()-cycles0 || cres.Makespan != rec.Makespan()-span0 {
		t.Errorf("reply cycles=%d makespan=%d, mirror cycles=%d makespan=%d",
			cres.Cycles, cres.Makespan, rec.Cycle()-cycles0, rec.Makespan()-span0)
	}
}

func TestHealthAndRouting(t *testing.T) {
	_, api := startServer(t, Config{Shards: 3})
	h, err := api.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 3 || h.Version != APIVersion {
		t.Fatalf("health = %+v", h)
	}
	if h.Geometry.Banks != 4 || h.Geometry.TrackWidth != 64 {
		t.Fatalf("geometry = %+v", h.Geometry)
	}
	// An out-of-range explicit shard is a schema error.
	bad := 9
	_, err = api.Execute(context.Background(), ExecuteRequest{Shard: &bad, Request: Request{Op: "read", Src: &Addr{Tile: 1}}})
	if err == nil {
		t.Fatal("shard 9 of 3 accepted")
	}
}
