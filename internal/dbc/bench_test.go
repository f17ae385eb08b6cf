package dbc

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/params"
)

func benchDBC(b *testing.B, width int) *DBC {
	b.Helper()
	d := MustNew(width, 32, params.TRD7)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < 32; r++ {
		d.LoadRow(r, randRow(width, rng))
	}
	return d
}

// BenchmarkDBCShift measures one DBC-wide shift step on 512 wires — with
// the plane representation this is ring-buffer index bookkeeping, not
// per-wire domain movement.
func BenchmarkDBCShift(b *testing.B) {
	d := benchDBC(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := 1
		if i&1 == 1 {
			dir = -1
		}
		if err := d.Shift(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBCTRAll measures a whole-DBC transverse read on 512 wires:
// eight bit-plane words are folded into carry-save counters per word
// column.
func BenchmarkDBCTRAll(b *testing.B) {
	d := benchDBC(b, 512)
	lp := LevelPlanes{C0: make([]uint64, 8), C1: make([]uint64, 8), C2: make([]uint64, 8), N: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pa.TRPlanes(lp.C0, lp.C1, lp.C2)
	}
}

// BenchmarkDBCEvalPlanes measures the word-parallel gate evaluation of a
// sensed window across 512 wires.
func BenchmarkDBCEvalPlanes(b *testing.B) {
	d := benchDBC(b, 512)
	lp := NewLevelPlanes(512)
	d.TRAllPlanesInto(&lp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := EvalPlanes(OpXOR, lp, params.TRD7); got.Len() != 512 {
			b.Fatal("bad length")
		}
	}
}

// BenchmarkDBCPortRoundTrip measures an aligned write+read through the
// left access port on 512 wires.
func BenchmarkDBCPortRoundTrip(b *testing.B) {
	d := benchDBC(b, 512)
	bits := ConstRow(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WritePort(device.Left, bits)
		if got := d.ReadPort(device.Left); got.Len() != 512 {
			b.Fatal("bad length")
		}
	}
}

// BenchmarkDBCTW measures a transverse write (write + segmented shift)
// across 512 wires.
func BenchmarkDBCTW(b *testing.B) {
	d := benchDBC(b, 512)
	bits := ConstRow(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TW(bits)
	}
}
