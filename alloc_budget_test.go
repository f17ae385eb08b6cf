// Allocation budgets for the hot kernels, pinned to the numbers
// recorded in BENCH_plane.json and BENCH_parallel.json. `make ci` runs
// this test (the alloc-budget target): a change that makes any kernel
// allocate more per call than its recorded budget fails the build, so
// alloc regressions can't slip in silently behind unchanged ns/op on a
// noisy shared host. Budgets are per-call allocation counts — they are
// host-independent, unlike wall-clock numbers.
package coruscant

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dbc"
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
// kernels (the BENCH_plane.json rows) and of the batch execution paths
// (the BENCH_parallel.json rows). Budgets are the recorded numbers.
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
	allocBudget(t, "AddMulti", 2, func() {
		if _, err := u.AddMulti(addRows, 8); err != nil {
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
	allocBudget(t, "Multiply", 31, func() {
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
	// The ISSUE acceptance bound is ≤ 8; the kernel measures 1 (one
	// result-row allocation) after the transverse-read scratch moved
	// into the unit's reusable buffers.
	allocBudget(t, "MaxTR", 8, func() {
		if _, err := u.MaxTR(maxRows, 8); err != nil {
			t.Fatal(err)
		}
	})

	// Batch paths: the 32-request fixture from bench_parallel_test.go.
	// Budgets are per batch (32 requests), matching BENCH_parallel.json.
	m, reqs := batchFixture(t)
	allocBudget(t, "BatchSerial", 480, func() {
		for _, r := range reqs {
			if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	allocBudget(t, "ExecuteBatch", 289, func() {
		for _, res := range m.ExecuteBatch(reqs) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})

	// Service wire codec: one 8-word row encoded and decoded back (the
	// canonical spelling takes the decoder's fast path), then one
	// 512-wire blocksize-8 write plus one add through the /v1 handler
	// with no socket. Budgets are per round trip and per request pair.
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
	allocBudget(t, "ServiceExecute", 106, func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathExecute, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
			}
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
	toggled, err := NewMemory(cfg, WithRecovery(DefaultRecoveryPolicy()))
	if err != nil {
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
