package pim

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
)

// The ISSUE-4 allocation regression gates: with the scratch arena in
// place, the steady state of each hot operation is exactly one
// allocation — the owned result row the dbc.Row ownership contract
// requires (scratch rows must never escape). The historical numbers
// these tests pin down were AddMulti 2, Multiply 31 and MaxTR 73
// allocs/op (BENCH_plane.json, pre-arena).
func TestAllocsPerOpSteadyState(t *testing.T) {
	u := MustNewUnit(params.DefaultConfig())
	width := u.Width()

	operands := make([]dbc.Row, 5)
	for i := range operands {
		vals := make([]uint64, width/8)
		for l := range vals {
			vals[l] = uint64(3*i+5*l+1) % 256
		}
		operands[i] = MustPackLanes(vals, 8, width)
	}
	mvals := make([]uint64, width/16)
	for l := range mvals {
		mvals[l] = uint64(7*l+3) % 256
	}
	ma := MustPackLanes(mvals, 16, width)
	mb := MustPackLanes(mvals, 16, width)

	dvals := make([]uint64, width/8)
	for l := range dvals {
		dvals[l] = uint64(5*l+3) % 256 // divisor row, some small, none huge
	}
	da := operands[0]
	dd := MustPackLanes(dvals, 8, width)

	cases := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"AddMulti", 1, func() error { _, err := u.AddMulti(operands, 8); return err }},
		{"AddMultiNMR", 1, func() error { _, err := u.AddMultiNMR(3, operands[:3], 8); return err }},
		{"Multiply", 1, func() error { _, err := u.Multiply(ma, mb, 8); return err }},
		{"MaxTR", 1, func() error { _, err := u.MaxTR(operands, 8); return err }},
		{"MaxSelect", 1, func() error { _, err := u.MaxSelect(operands[0], operands[1], 8); return err }},
		// The new ops return owned rows too: DivMod q+r, one result
		// row each for shift and FMA.
		{"DivMod", 2, func() error { _, _, err := u.DivMod(da, dd, 8); return err }},
		{"LogicalShift", 1, func() error { _, err := u.LogicalShift(da, 3, 8, true); return err }},
		{"FMA", 1, func() error { _, err := u.FMA(ma, mb, operands[1], 8); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the arena so pool growth is not measured.
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.max {
				t.Errorf("%s: %.1f allocs/op, want ≤ %.0f (scratch arena regression)", tc.name, got, tc.max)
			}
		})
	}
}

// TestScratchReuseKeepsResultsIndependent guards the ownership
// contract the arena makes dangerous to break: results returned by
// consecutive operations must not share storage with the recycled
// scratch rows or with each other.
func TestScratchReuseKeepsResultsIndependent(t *testing.T) {
	u := MustNewUnit(params.DefaultConfig())
	width := u.Width()
	a := MustPackLanes([]uint64{3, 5, 7}, 16, width)
	b := MustPackLanes([]uint64{9, 11, 13}, 16, width)

	p1, err := u.Multiply(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint64(nil), p1.Words...)
	// A second op of every arena-backed kind recycles all scratch rows.
	if _, err := u.Multiply(b, a, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MaxTR([]dbc.Row{a, b}, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MaxSelect(a, b, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddMulti([]dbc.Row{a, b}, 16); err != nil {
		t.Fatal(err)
	}
	for i, w := range p1.Words {
		if w != want[i] {
			t.Fatalf("result mutated by later ops at word %d: scratch row escaped", i)
		}
	}
}
