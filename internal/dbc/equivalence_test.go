package dbc

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/params"
)

// TestDBCEquivalentToIndependentNanowires drives a DBC and a bank of
// standalone nanowires through the same random operation sequence and
// checks that the cluster abstraction never diverges from the
// single-wire device physics.
func TestDBCEquivalentToIndependentNanowires(t *testing.T) {
	const width, rows = 8, 32
	d := MustNew(width, rows, params.TRD7)
	wires := make([]*device.Nanowire, width)
	for i := range wires {
		w, err := device.NewNanowire(rows, params.TRD7)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	rng := rand.New(rand.NewSource(60))

	// Seed identical contents.
	for r := 0; r < rows; r++ {
		row := randRow(width, rng)
		d.LoadRow(r, row)
		for i, w := range wires {
			w.SetRow(r, row.Get(i))
		}
	}

	randBits := func() Row { return randRow(width, rng) }
	for step := 0; step < 400; step++ {
		switch rng.Intn(6) {
		case 0: // bounded shift
			delta := rng.Intn(5) - 2
			cur := d.Offset()
			if cur+delta < -12 || cur+delta > 13 {
				delta = -delta
			}
			if err := d.Shift(delta); err != nil {
				t.Fatal(err)
			}
			for _, w := range wires {
				if err := w.Shift(delta); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // port write
			side := device.Side(rng.Intn(2))
			bits := randBits()
			d.WritePort(side, bits)
			for i, w := range wires {
				w.WritePort(side, bits.Get(i))
			}
		case 2: // port read equivalence
			side := device.Side(rng.Intn(2))
			got := d.ReadPort(side)
			for i, w := range wires {
				if got.Get(i) != w.ReadPort(side) {
					t.Fatalf("step %d: ReadPort diverged on wire %d", step, i)
				}
			}
		case 3: // TR equivalence
			levels := trLevels(d)
			for i, w := range wires {
				if levels[i] != w.TR() {
					t.Fatalf("step %d: TR diverged on wire %d: %d vs %d", step, i, levels[i], w.TR())
				}
			}
		case 4: // transverse write
			bits := randBits()
			d.TW(bits)
			for i, w := range wires {
				w.TW(bits.Get(i))
			}
		case 5: // full state comparison
			for r := 0; r < rows; r++ {
				row := d.PeekRow(r)
				for i, w := range wires {
					if row.Get(i) != w.PeekRow(r) {
						t.Fatalf("step %d: row %d wire %d diverged", step, r, i)
					}
				}
			}
		}
	}
}

// TestDBCEquivalenceUnderFaultInjection repeats the nanowire-bank
// equivalence with TR and shift faults enabled: the word-masked fault
// path of the packed engine must reproduce the scalar per-wire fault
// path bit for bit when both draw from same-seeded injectors. The
// wire-by-wire reference lives in refdbc_test.go.
func TestDBCEquivalenceUnderFaultInjection(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for seq := int64(0); seq < 50; seq++ {
			runDifferential(t, trd, 77_000+seq, true)
		}
	}
}
