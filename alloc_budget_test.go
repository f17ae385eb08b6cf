// Allocation budgets for the hot kernels, pinned to the numbers
// recorded in BENCH_plane.json and BENCH_parallel.json. `make ci` runs
// this test (the alloc-budget target): a change that makes any kernel
// allocate more per call than its recorded budget fails the build, so
// alloc regressions can't slip in silently behind unchanged ns/op on a
// noisy shared host. Budgets are per-call allocation counts — they are
// host-independent, unlike wall-clock numbers.
package coruscant

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
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
}
