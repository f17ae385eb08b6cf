// Allocation budgets for the hot kernels, pinned to the numbers
// recorded in BENCH_plane.json, BENCH_parallel.json and
// BENCH_compile.json. `make ci` runs
// this test (the alloc-budget target): a change that makes any kernel
// allocate more per call than its recorded budget fails the build, so
// alloc regressions can't slip in silently behind unchanged ns/op on a
// noisy shared host. Budgets are per-call allocation counts — they are
// host-independent, unlike wall-clock numbers.
package coruscant

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/service"
)

// allocBudget runs f through testing.AllocsPerRun and fails if the
// per-call allocation count exceeds the recorded budget.
func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(32, f)
	t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds the recorded budget of %.0f", name, got, budget)
	}
}

// TestAllocBudget pins the per-call allocation counts of the PIM
// kernels (the BENCH_plane.json rows), of the batch execution paths
// (the BENCH_parallel.json rows), of the single-row memory calls, of
// materializing a PIM cluster, of compiling and running pimc plans, of reading a memory's cost and of
// the service codec, handler and client. Budgets are the measured
// numbers.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts; budgets are pinned by the non-race ci run (make alloc-budget)")
	}
	u := pim.MustNewUnit(params.DefaultConfig())

	addRows := make([]dbc.Row, 5)
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i * 3 % 256)
	}
	for i := range addRows {
		addRows[i] = pim.MustPackLanes(vals, 8, 512)
	}
	allocBudget(t, "AddMulti", 1, func() {
		if _, err := u.AddMulti(addRows, 8); err != nil {
			t.Fatal(err)
		}
	})

	// One allocation, the sum row: the vote counters live in the
	// unit's reusable buffers.
	nmr := nmrRows()
	allocBudget(t, "AddMultiNMR", 1, func() {
		if _, err := u.AddMultiNMR(3, nmr, 8); err != nil {
			t.Fatal(err)
		}
	})

	xorRows := make([]dbc.Row, 7)
	for i := range xorRows {
		xorRows[i] = dbc.NewRow(512)
		for j := 0; j < 512; j++ {
			xorRows[i].Set(j, uint8((i+j)%2))
		}
	}
	allocBudget(t, "BulkBitwise", 1, func() {
		if _, err := u.BulkBitwise(dbc.OpXOR, xorRows); err != nil {
			t.Fatal(err)
		}
	})

	mulVals := make([]uint64, 32)
	for i := range mulVals {
		mulVals[i] = uint64(i*7 + 3)
	}
	allocBudget(t, "Multiply", 4, func() {
		if _, err := u.MultiplyValues(mulVals, mulVals, 8); err != nil {
			t.Fatal(err)
		}
	})

	maxRows := make([]dbc.Row, 7)
	for i := range maxRows {
		mv := make([]uint64, 64)
		for j := range mv {
			mv[j] = uint64((i*37 + j*11) % 256)
		}
		maxRows[i] = pim.MustPackLanes(mv, 8, 512)
	}
	// One result-row allocation: the transverse-read scratch lives in
	// the unit's reusable buffers.
	allocBudget(t, "MaxTR", 1, func() {
		if _, err := u.MaxTR(maxRows, 8); err != nil {
			t.Fatal(err)
		}
	})
	allocBudget(t, "MaxSelect", 1, func() {
		if _, err := u.MaxSelect(maxRows[0], maxRows[1], 8); err != nil {
			t.Fatal(err)
		}
	})
	// Two allocations: the quotient and the remainder row.
	divA, divD := divRows()
	allocBudget(t, "DivMod", 2, func() {
		if _, _, err := u.DivMod(divA, divD, 8); err != nil {
			t.Fatal(err)
		}
	})
	// The ablation's 33-operand 32-bit large add on 64 wires: the
	// reduction rounds run on the unit's arena, so only the sum row is
	// allocated (51 allocations when each round allocated a Reduction
	// and a new operand list).
	largeCfg := params.DefaultConfig()
	largeCfg.Geometry.TrackWidth = 64
	ularge := pim.MustNewUnit(largeCfg)
	largeRows := make([]dbc.Row, 33)
	for i := range largeRows {
		largeRows[i] = pim.MustPackLanes([]uint64{uint64(i * 999)}, 32, 64)
	}
	allocBudget(t, "AddLarge", 1, func() {
		if _, err := ularge.AddLarge(largeRows, 32); err != nil {
			t.Fatal(err)
		}
	})

	// Batch paths: the 32-request fixture from bench_parallel_test.go.
	// Budgets are per batch (32 requests), matching BENCH_parallel.json.
	m, reqs := batchFixture(t)
	allocBudget(t, "BatchSerial", 32, func() {
		for _, r := range reqs {
			if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	allocBudget(t, "ExecuteBatch", 33, func() {
		for _, res := range m.ExecuteBatch(reqs) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})
	// PlanBatch plans on a scratch of its own, so every call is a cold
	// plan: the fixed set of arrays the batch's footprints and groups
	// are carved from, not some per request (226 when each footprint
	// and group list grew on its own).
	allocBudget(t, "PlanBatch", 9, func() {
		m.PlanBatch(reqs)
	})

	// The single-row calls are one-request plans on the batch path's
	// pooled scratch: a write allocates nothing, a read and a copy only
	// the row they move. Budgets are per call.
	r0 := reqs[0]
	operand, err := m.ReadRow(r0.Operands[0])
	if err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "WriteRow", 0, func() {
		if err := m.WriteRow(r0.Operands[0], operand); err != nil {
			t.Fatal(err)
		}
	})
	allocBudget(t, "ReadRow", 1, func() {
		if _, err := m.ReadRow(r0.Dst); err != nil {
			t.Fatal(err)
		}
	})
	staging := isa.Addr{Bank: r0.Dst.Bank, Tile: 1} // a DBC outside the adds' footprints
	allocBudget(t, "CopyRow", 1, func() {
		if err := m.CopyRow(r0.Dst, staging); err != nil {
			t.Fatal(err)
		}
	})

	// pimc: compile the three examples/pimasm programs at -O 2 (what
	// compile-corpus and the loadgen kernel run), first alone, then
	// compile and run them on a memory whose DBCs the first corpus pass
	// materialized. Budgets are per corpus. CompileO0 is the naive
	// baseline pimasm compiles beside every -O1/-O2 plan it reports.
	// A compile works on a pooled scratch and allocates only what its
	// Result owns: six objects per program (the Result, its
	// input-and-output array, the Plan, its Steps, the request array and
	// the operand array) and one packed row per constant write.
	ccfg := benchCompileConfig()
	cm, err := memory.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	_, corpus := benchCorpus(t)
	allocBudget(t, "CompileO0", 20, func() {
		for _, src := range corpus {
			if _, err := compile.Compile(src, ccfg, compile.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	allocBudget(t, "CompileO2", 20, func() {
		for _, src := range corpus {
			if _, err := compile.Compile(src, ccfg, compile.Options{Level: 2}); err != nil {
				t.Fatal(err)
			}
		}
	})
	compileRun := func() {
		for _, src := range corpus {
			res, err := compile.Compile(src, ccfg, compile.Options{Level: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Plan.Run(cm); err != nil {
				t.Fatal(err)
			}
		}
	}
	compileRun()
	allocBudget(t, "CompileRunO2", 85, compileRun)

	// coruscantd's /v1/compile kernel, y = max(fma(x, w, b), x), at -O 2
	// on the daemon's default device: one request in sixteen of the
	// serve-mixed load compiles it.
	const kernel = `%x = load b0.s0.t1.d0.r0
%w = load b0.s0.t1.d0.r1
%b = load b0.s0.t1.d0.r2
%y = fma %x, %w, %b bs=8
%r = max %y, %x bs=8
store %r, b0.s0.t2.d1.r0
store %y, b0.s0.t2.d1.r1
`
	allocBudget(t, "CompileKernel", 6, func() {
		if _, err := compile.Compile(kernel, params.DefaultConfig(), compile.Options{Level: 2}); err != nil {
			t.Fatal(err)
		}
	})

	// The same for a program whose -O2 compile folds: a repeated load
	// and add, a shift chain to zero, a multiply by that zero, and xor
	// pairs that cancel. Three kernels are left: shr, add and fma.
	const folded = `%a = load b0.s0.t1.d0.r0
%a2 = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%n = shr %a bs=8 imm=4
%nn = shr %n bs=8 imm=4
%m = mult %nn, %n bs=8
%p = add %a, %b, %m bs=8
%q = add %b, %a2 bs=8
%x = xor %p, %q, %b, %b bs=8
%f = fma %n, %n, %x bs=8
store %f, b0.s0.t2.d0.r0
store %q, b0.s0.t2.d0.r1
`
	compileRunFolded := func() {
		res, err := compile.Compile(folded, ccfg, compile.Options{Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Requests != 3 {
			t.Fatalf("folded program issues %d kernels, want 3", res.Stats.Requests)
		}
		if err := res.Plan.Run(cm); err != nil {
			t.Fatal(err)
		}
	}
	compileRunFolded()
	allocBudget(t, "CompileRunFolded", 15, compileRunFolded)

	// Memory.Stats reads the recorder's ledger: nothing per shard.
	sm, err := memory.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 16; d++ {
		if err := sm.WriteRow(isa.Addr{Tile: 1, DBC: d}, dbc.NewRow(ccfg.Geometry.TrackWidth)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sm.MaterializedDBCs(); n != 16 {
		t.Fatalf("materialized %d DBCs, want 16", n)
	}
	allocBudget(t, "MemoryStats", 0, func() {
		if sm.Stats().WriteSteps != 16 {
			t.Fatal("Memory.Stats lost the 16 row writes")
		}
	})

	// A cold PIM cluster: a fresh memory and its first write to a PIM
	// DBC, which materializes the shard, its unit and the recorder the
	// unit starts on before the memory attaches its own. Budget per
	// memory.
	dcfg := params.DefaultConfig()
	pimAddr := isa.Addr{DBC: dcfg.Geometry.DBCsPerTile - 1}
	if !pimAddr.IsPIMEnabled(dcfg.Geometry) {
		t.Fatalf("%+v is not a PIM DBC", pimAddr)
	}
	coldRow := dbc.NewRow(dcfg.Geometry.TrackWidth)
	allocBudget(t, "ColdPIMCluster", 17, func() {
		cold, err := memory.New(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.WriteRow(pimAddr, coldRow); err != nil {
			t.Fatal(err)
		}
	})

	// Service wire codec: one 8-word row encoded and decoded back (the
	// canonical spelling takes the decoder's fast path), then one
	// 512-wire blocksize-8 write plus one add through the /v1 handler
	// with no socket, then one add through service.Client against a
	// loopback server, the client and the server counted together.
	// Budgets are per round trip, per request pair and per call. Both
	// ends decode the canonical envelopes on their fast paths, so a
	// request or a reply that falls back to encoding/json costs about
	// ten more and fails its row.
	wireRow := pim.MustPackLanes(vals, 8, 512)
	wireJSON, err := json.Marshal(service.NewRowData(wireRow))
	if err != nil {
		t.Fatal(err)
	}
	var decoded service.RowData
	allocBudget(t, "RowDataRoundTrip", 4, func() {
		rd := service.NewRowData(wireRow)
		if err := decoded.UnmarshalJSON(wireJSON); err != nil || len(decoded.Words) != len(rd.Words) {
			t.Fatal(err)
		}
	})

	srv, err := service.NewServer(service.Config{Device: params.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	var bodies [][]byte
	for _, req := range []service.Request{
		{Op: "write", Dst: &service.Addr{Tile: 1}, Blocksize: 8, Values: vals},
		{Op: "add", Src: &service.Addr{DBC: 15}, Blocksize: 8,
			Operands: []service.Addr{{Tile: 1}, {Tile: 1, Row: 1}}, Dst: &service.Addr{Tile: 2}},
	} {
		body, err := json.Marshal(service.ExecuteRequest{Request: req})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	allocBudget(t, "ServiceExecute", 68, func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathExecute, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
			}
		}
	})

	ts := httptest.NewServer(h)
	defer ts.Close()
	api := service.NewClient(ts.URL, ts.Client())
	shard := 0
	add := service.ExecuteRequest{Tenant: "t", Shard: &shard, Request: service.Request{
		Op: "add", Src: &service.Addr{DBC: 15}, Blocksize: 8,
		Operands: []service.Addr{{Tile: 1}, {Tile: 1, Row: 1}}, Dst: &service.Addr{Tile: 2}}}
	allocBudget(t, "ClientExecute", 106, func() {
		if resp, err := api.Execute(context.Background(), add); err != nil || len(resp.Values) != 64 {
			t.Fatal(err)
		}
	})
}

// TestExecuteNoFaultAllocsUnchanged pins the allocation count of the
// no-fault, no-recovery Execute path: installing then disabling
// recovery must leave the hot path allocation-identical to a memory
// that never saw the recovery layer.
func TestExecuteNoFaultAllocsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts; the non-race test run keeps this gate")
	}
	cfg := DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	g := cfg.Geometry

	measure := func(m *Memory) float64 {
		pimAddr := Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
		ops := []Addr{{Bank: 0, Tile: 1}, {Bank: 0, Tile: 1, Row: 1}}
		dst := Addr{Bank: 0, Tile: 2}
		row, err := PackLanes([]uint64{5}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ops {
			if err := m.WriteRow(a, row); err != nil {
				t.Fatal(err)
			}
		}
		in := Instruction{Op: OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
		run := func() {
			if _, err := m.Execute(in, ops, dst); err != nil {
				t.Fatal(err)
			}
		}
		run() // materialize shards outside the measurement
		return testing.AllocsPerRun(50, run)
	}

	plain, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	toggled, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := toggled.SetRecovery(DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	if err := toggled.SetRecovery(RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}

	base := measure(plain)
	after := measure(toggled)
	if after > base {
		t.Errorf("disabled-recovery Execute allocates %.1f/op, plain memory %.1f/op", after, base)
	}
}
