package coruscant_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	coruscant "repro"
)

// The façade tests exercise the library exactly as the examples and a
// downstream user would: through the re-exported API only.

func newUnit(t *testing.T, width int) *coruscant.Unit {
	t.Helper()
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = width
	u, err := coruscant.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFacadeQuickstartFlow(t *testing.T) {
	u := newUnit(t, 64)
	a, err := coruscant.PackLanes([]uint64{100, 200}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coruscant.PackLanes([]uint64{55, 60}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := u.Add2(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := coruscant.UnpackLanes(sum, 8)
	if got[0] != 155 || got[1] != 4 { // 260 mod 256
		t.Errorf("Add2 = %v", got)
	}
	if u.Stats().Cycles() == 0 {
		t.Error("no cycles traced")
	}
	if u.Cost().EnergyPJ <= 0 {
		t.Error("no energy traced")
	}
}

func TestFacadeBulkOps(t *testing.T) {
	u := newUnit(t, 16)
	a := coruscant.FromBits(1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0)
	b := coruscant.FromBits(1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0)
	res, err := u.BulkBitwise(coruscant.OpNAND, []coruscant.Row{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		if res.Get(i) != 1-a.Get(i)&b.Get(i) {
			t.Fatalf("NAND bit %d", i)
		}
	}
}

func TestFacadeNanowire(t *testing.T) {
	w, err := coruscant.NewNanowire(32, coruscant.TRD7)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalDomains() != 57 {
		t.Errorf("TotalDomains = %d, want 57", w.TotalDomains())
	}
	w.PokeWindow(2, 1)
	w.PokeWindow(4, 1)
	if w.TR() != 2 {
		t.Errorf("TR = %d, want 2", w.TR())
	}
}

func TestFacadeController(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	c, err := coruscant.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := coruscant.PackLanes([]uint64{3, 5}, 16, 32)
	b, _ := coruscant.PackLanes([]uint64{4, 6}, 16, 32)
	in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Blocksize: 16, Operands: 2}
	sum, err := c.Execute(in, []coruscant.Row{a, b})
	if err != nil {
		t.Fatal(err)
	}
	got := coruscant.UnpackLanes(sum, 16)
	if got[0] != 7 || got[1] != 11 {
		t.Errorf("controller add = %v", got)
	}
}

func TestFacadeCSD(t *testing.T) {
	digits := coruscant.CSD(20061)
	var v int64
	for _, d := range digits {
		v += int64(d.Sign) << uint(d.Shift)
	}
	if v != 20061 {
		t.Errorf("CSD evaluates to %d", v)
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	u := newUnit(t, 16)
	u.D.SetFaultInjector(coruscant.NewFaultInjector(1.0, 0, 5))
	a := coruscant.NewRow(16)
	res, err := u.BulkBitwise(coruscant.OpXOR, []coruscant.Row{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnesCount() == 0 {
		t.Error("probability-1 fault injection produced no faults")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := coruscant.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments")
	}
	tb, err := coruscant.Experiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "table1" || len(tb.Rows) != 4 {
		t.Errorf("table1 malformed: %+v", tb)
	}
	if _, err := coruscant.Experiment("bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeSystemModel(t *testing.T) {
	sys := coruscant.NewSystem(coruscant.DefaultConfig())
	if sys.MissLatencyNS(coruscant.DRAM) <= sys.MissLatencyNS(coruscant.DWM) {
		t.Error("DRAM miss should exceed DWM miss")
	}
}

func TestFacadeGeometry(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	if cfg.Geometry.TotalBytes() != 1<<30 {
		t.Error("default geometry is not 1 GiB")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeExecuteBatch(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := coruscant.NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pim := func(bank int) coruscant.Addr {
		return coruscant.Addr{Bank: bank, Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	}
	row, err := coruscant.PackLanes([]uint64{9, 7}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]coruscant.BatchRequest, 4)
	for i := range reqs {
		a := pim(i)
		a.Row = 0
		if err := m.WriteRow(a, row); err != nil {
			t.Fatal(err)
		}
		dst := pim(i)
		dst.Row = 1
		reqs[i] = coruscant.BatchRequest{
			In:       coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pim(i), Blocksize: 8, Operands: 2},
			Operands: []coruscant.Addr{a, a},
			Dst:      dst,
		}
	}
	for i, res := range m.ExecuteBatch(reqs) {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		got := coruscant.UnpackLanes(res.Row, 8)
		if got[0] != 18 || got[1] != 14 {
			t.Errorf("request %d: lanes %v, want [18 14 ...]", i, got[:2])
		}
	}
}

func TestFacadeErrCrossDBC(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := coruscant.NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := coruscant.Addr{Bank: 0, Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	other := coruscant.Addr{Bank: 1, Tile: 1} // different bank
	in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: src, Blocksize: 8, Operands: 2}
	_, err = m.Execute(in, []coruscant.Addr{src, other}, src)
	if !errors.Is(err, coruscant.ErrCrossDBC) {
		t.Errorf("cross-bank operand: err = %v, want ErrCrossDBC", err)
	}
}

func TestFacadeShardPool(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	pool, err := coruscant.NewShardPool(cfg, 3,
		coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", pool.Shards())
	}
	// Shards share nothing: the same address holds different rows.
	addr := coruscant.Addr{Tile: 1, Row: 0}
	for i := 0; i < pool.Shards(); i++ {
		row, err := coruscant.PackLanes([]uint64{uint64(i) + 1}, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Shard(i).WriteRow(addr, row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pool.Shards(); i++ {
		row, err := pool.Shard(i).ReadRow(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got := coruscant.UnpackLanes(row, 8)[0]; got != uint64(i)+1 {
			t.Errorf("shard %d lane 0 = %d, want %d", i, got, i+1)
		}
	}

	// Inapplicable options fail loudly instead of being dropped.
	if _, err := coruscant.NewShardPool(cfg, 2, coruscant.WithTelemetry(coruscant.NewRecorder(cfg))); err == nil {
		t.Error("WithTelemetry accepted by NewShardPool")
	}
	if _, err := coruscant.NewShardPool(cfg, 2, coruscant.WithFaults(coruscant.NewFaultInjector(0.1, 0, 1))); err == nil {
		t.Error("WithFaults accepted by NewShardPool")
	}
	if _, err := coruscant.NewShardPool(cfg, 0); err == nil {
		t.Error("empty pool accepted")
	}
}

func TestFacadeService(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	srv, err := coruscant.NewServiceServer(coruscant.ServiceConfig{Device: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	api := coruscant.NewServiceClient(ts.URL, nil)
	ctx := context.Background()
	h, err := api.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 2 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	var c coruscant.ServiceCounters = srv.Counters()
	if c.Accepted != 0 {
		t.Fatalf("counters before traffic: %+v", c)
	}

	// The service sentinels round-trip the wire through the façade names.
	quota, err := coruscant.NewServiceServer(coruscant.ServiceConfig{
		Device: cfg, QuotaRate: 0.001, QuotaBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer quota.Drain()
	qs := httptest.NewServer(quota.Handler())
	defer qs.Close()
	qapi := coruscant.NewServiceClient(qs.URL, nil)
	req := coruscant.ServiceRequest{Op: "read", Src: &coruscant.ServiceAddr{Tile: 1}}
	if _, err := qapi.Execute(ctx, coruscant.ServiceExecuteRequest{Tenant: "t", Request: req}); err != nil {
		t.Fatal(err)
	}
	_, err = qapi.Execute(ctx, coruscant.ServiceExecuteRequest{Tenant: "t", Request: req})
	if !errors.Is(err, coruscant.ErrServiceQuota) {
		t.Fatalf("second request err = %v, want ErrServiceQuota", err)
	}
}

func TestFacadeCompileProgram(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	const src = `
%a = load b0.s0.t1.d0.r0
%k = li 10 bs=8
%s = add %a, %k bs=8
store %s, b0.s0.t2.d0.r5
`
	rec := coruscant.NewRecorder(cfg)
	res, err := coruscant.CompileProgram(src, cfg, coruscant.CompileOptions{
		Level:    1,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inputs) != 1 || len(res.Outputs) != 1 {
		t.Fatalf("inputs=%d outputs=%d, want 1/1", len(res.Inputs), len(res.Outputs))
	}

	m, err := coruscant.NewMemory(cfg, coruscant.WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	row, err := coruscant.PackLanes([]uint64{1, 2, 3}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(res.Inputs[0].Addr, row); err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Run(m); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadRow(res.Outputs[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	got := coruscant.UnpackLanes(out, 8)
	if got[0] != 11 || got[1] != 12 || got[2] != 13 {
		t.Errorf("compiled add = %v, want 11 12 13...", got[:3])
	}

	// Compilation at level 1 publishes the placement savings as marks.
	met := rec.Metrics()
	if mk := met.Mark("moves-saved"); mk.Count == 0 {
		t.Error("no moves-saved mark recorded")
	}
	if sp := met.Span("pimc-place"); sp.Count == 0 {
		t.Error("no pimc-place span recorded")
	}
}
