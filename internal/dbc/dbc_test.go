package dbc

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
)

func randRow(width int, rng *rand.Rand) Row {
	r := NewRow(width)
	for i := 0; i < width; i++ {
		r.Set(i, uint8(rng.Intn(2)))
	}
	return r
}

func TestDBCLoadPeekRows(t *testing.T) {
	d := MustNew(64, 32, params.TRD7)
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 32)
	for r := range rows {
		rows[r] = randRow(64, rng)
		d.LoadRow(r, rows[r])
	}
	for r := range rows {
		got := d.PeekRow(r)
		if !got.Equal(rows[r]) {
			t.Fatalf("row %d = %v, want %v", r, got, rows[r])
		}
	}
}

func TestDBCLockstepShift(t *testing.T) {
	d := MustNew(16, 32, params.TRD7)
	rng := rand.New(rand.NewSource(2))
	want := make([]Row, 32)
	for r := range want {
		want[r] = randRow(16, rng)
		d.LoadRow(r, want[r])
	}
	if err := d.Shift(7); err != nil {
		t.Fatal(err)
	}
	if err := d.Shift(-7); err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got := d.PeekRow(r); !got.Equal(want[r]) {
			t.Fatalf("after shifts row %d changed: %v != %v", r, got, want[r])
		}
	}
}

func TestDBCAlignReadWritePort(t *testing.T) {
	d := MustNew(8, 32, params.TRD7)
	row := FromBits(1, 0, 1, 1, 0, 0, 1, 0)
	d.LoadRow(5, row)
	if _, err := d.Align(5, device.Left); err != nil {
		t.Fatal(err)
	}
	if got := d.RowAtPort(device.Left); got != 5 {
		t.Fatalf("RowAtPort = %d, want 5", got)
	}
	got := d.ReadPort(device.Left)
	if !got.Equal(row) {
		t.Fatalf("ReadPort = %v, want %v", got, row)
	}
	d.WritePort(device.Left, FromBits(0, 1, 0, 0, 1, 1, 0, 1))
	got = d.PeekRow(5)
	for w := 0; w < got.Len(); w++ {
		if got.Get(w) != 1-row.Get(w) {
			t.Fatalf("after WritePort row 5 wire %d = %d", w, got.Get(w))
		}
	}
}

// TestDBCWriteRow: WriteRow lands the row on its data row through the
// nearest port and reports a row of the wrong width as an error.
func TestDBCWriteRow(t *testing.T) {
	d := MustNew(8, 32, params.TRD7)
	row := FromBits(1, 0, 1, 1, 0, 0, 1, 0)
	for _, r := range []int{0, 9, 31} {
		if err := d.WriteRow(r, row); err != nil {
			t.Fatal(err)
		}
		if got := d.PeekRow(r); !got.Equal(row) {
			t.Errorf("row %d = %v, want %v", r, got, row)
		}
	}
	if err := d.WriteRow(3, NewRow(9)); err == nil {
		t.Error("9-wire row written to an 8-wire DBC")
	}
}

func TestDBCTRMatchesPopcount(t *testing.T) {
	// The DBC's per-wire TR must equal the per-wire popcount of the
	// window rows — cross-checking the lockstep model against the
	// single-wire device physics.
	d := MustNew(32, 32, params.TRD7)
	rng := rand.New(rand.NewSource(3))
	want := make([]int, 32)
	for i := 0; i < 7; i++ {
		row := randRow(32, rng)
		d.PokeWindow(i, row)
		for w := 0; w < row.Len(); w++ {
			want[w] += int(row.Get(w))
		}
	}
	got := trLevels(d)
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("TR wire %d = %d, want %d", w, got[w], want[w])
		}
	}
}

func TestDBCTRMaskedInto(t *testing.T) {
	d := MustNew(16, 32, params.TRD7)
	tr := telemetry.NewRecorder(params.DefaultConfig())
	d.SetTelemetry(tr, "")
	d.PokeWindowConst(3, 1)
	lp := NewLevelPlanes(16)
	d.TRMaskedInto(&lp, []uint64{1<<2 | 1<<5}, 2)
	for w := 0; w < 16; w++ {
		want := 0
		if w == 2 || w == 5 {
			want = 1
		}
		if l := lp.Level(w); l != want {
			t.Fatalf("wire %d level = %d, want %d (unselected wires read 0)", w, l, want)
		}
	}
	if s := tr.Stats(); s.TRSteps != 1 || s.TRWires != 2 {
		t.Errorf("masked TR traced %d steps / %d wires, want 1/2", s.TRSteps, s.TRWires)
	}
}

func TestDBCTWRow(t *testing.T) {
	d := MustNew(4, 32, params.TRD7)
	first := FromBits(1, 1, 0, 0)
	d.PokeWindow(0, first)
	d.TW(FromBits(0, 1, 1, 0))
	got := d.PeekWindow(0)
	want := FromBits(0, 1, 1, 0)
	if !got.Equal(want) {
		t.Fatalf("window 0 = %v, want %v", got, want)
	}
	got = d.PeekWindow(1)
	if !got.Equal(first) {
		t.Fatalf("window 1 = %v, want %v (shifted)", got, first)
	}
}

func TestDBCWriteScatter(t *testing.T) {
	d := MustNew(8, 32, params.TRD7)
	tr := telemetry.NewRecorder(params.DefaultConfig())
	d.SetTelemetry(tr, "")
	d.PokeWindowConst(0, 1) // wire 2's left-port domain must be cleared
	d.WriteScatterPlanes([]uint64{1 << 0}, []uint64{1<<0 | 1<<2}, []uint64{1 << 1}, []uint64{1 << 1}, 3)
	if got := d.PeekWindow(0).Get(0); got != 1 {
		t.Errorf("wire 0 left port = %d, want 1", got)
	}
	if got := d.PeekWindow(6).Get(1); got != 1 {
		t.Errorf("wire 1 right port = %d, want 1", got)
	}
	if got := d.PeekWindow(0).Get(2); got != 0 {
		t.Errorf("wire 2 left port = %d, want 0", got)
	}
	if got := d.PeekWindow(0).Get(3); got != 1 {
		t.Errorf("unselected wire 3 left port = %d, want 1 (untouched)", got)
	}
	s := tr.Stats()
	if s.WriteSteps != 1 || s.WriteBits != 3 {
		t.Errorf("scatter traced %d steps / %d bits, want 1/3", s.WriteSteps, s.WriteBits)
	}
}

func TestDBCTracing(t *testing.T) {
	d := MustNew(8, 32, params.TRD7)
	tr := telemetry.NewRecorder(params.DefaultConfig())
	d.SetTelemetry(tr, "")
	if err := d.Shift(3); err != nil {
		t.Fatal(err)
	}
	trLevels(d)
	d.WritePort(device.Left, NewRow(8))
	d.ReadPort(device.Right)
	d.TW(NewRow(8))
	s := tr.Stats()
	if s.ShiftSteps != 3 || s.ShiftWires != 24 {
		t.Errorf("shift trace %d/%d, want 3/24", s.ShiftSteps, s.ShiftWires)
	}
	if s.TRSteps != 1 || s.TRWires != 8 {
		t.Errorf("TR trace %d/%d, want 1/8", s.TRSteps, s.TRWires)
	}
	if s.Cycles() != 3+1+1+1+1 {
		t.Errorf("cycles = %d, want 7", s.Cycles())
	}
}

func TestDBCFaultInjection(t *testing.T) {
	d := MustNew(4, 32, params.TRD7)
	d.SetFaultInjector(device.NewFaultInjector(1.0, 0, 11))
	d.PokeWindowConst(2, 1) // true level 1 everywhere
	levels := trLevels(d)
	for w, l := range levels {
		if l == 1 {
			t.Errorf("wire %d unperturbed at probability 1", w)
		}
		if l < 0 || l > 7 {
			t.Errorf("wire %d level %d out of range", w, l)
		}
	}
}

func TestSenseDecomposition(t *testing.T) {
	// The level's binary decomposition gives S/C/C' (§III-B): C is one
	// for levels {2,3,6,7} ("above two and not above four, or above
	// six") and C' for levels ≥ 4.
	for level := 0; level <= 7; level++ {
		o := Sense(level, params.TRD7)
		if o.S != uint8(level&1) {
			t.Errorf("level %d: S=%d", level, o.S)
		}
		wantC := uint8(0)
		if (level >= 2 && level < 4) || level >= 6 {
			wantC = 1
		}
		if o.C != wantC {
			t.Errorf("level %d: C=%d, want %d", level, o.C, wantC)
		}
		wantCp := uint8(0)
		if level >= 4 {
			wantCp = 1
		}
		if o.Cp != wantCp {
			t.Errorf("level %d: C'=%d, want %d", level, o.Cp, wantCp)
		}
		if o.S+2*o.C+4*o.Cp != uint8(level) {
			t.Errorf("level %d: decomposition %d+2·%d+4·%d", level, o.S, o.C, o.Cp)
		}
	}
}

func TestSenseLogicOps(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for level := 0; level <= int(trd); level++ {
			o := Sense(level, trd)
			if (o.OR == 1) != (level >= 1) {
				t.Errorf("%v level %d: OR=%d", trd, level, o.OR)
			}
			if (o.AND == 1) != (level == int(trd)) {
				t.Errorf("%v level %d: AND=%d", trd, level, o.AND)
			}
			if o.NOR != 1-o.OR || o.NAND != 1-o.AND || o.XNOR != 1-o.XOR {
				t.Errorf("%v level %d: inversions wrong", trd, level)
			}
			if o.XOR != uint8(level&1) {
				t.Errorf("%v level %d: XOR=%d", trd, level, o.XOR)
			}
		}
	}
}

func TestEvalMajority(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		th := (int(trd) + 1) / 2
		for level := 0; level <= int(trd); level++ {
			want := uint8(0)
			if level >= th {
				want = 1
			}
			if got := Eval(OpMAJ, level, trd); got != want {
				t.Errorf("%v MAJ(%d) = %d, want %d", trd, level, got, want)
			}
		}
	}
}

// TestEvalPlanesMatchesEval holds the word-parallel gate evaluation the
// kernels use to the scalar Fig. 4(b) specification: at TRD 3, 5 and 7,
// with wire w of a two-word, partial-tail row holding level w mod
// (TRD+1), every op's EvalPlanes bit equals Eval of that level.
func TestEvalPlanesMatchesEval(t *testing.T) {
	const n = 70
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		lp := NewLevelPlanes(n)
		for w := 0; w < n; w++ {
			level := uint64(w % (int(trd) + 1))
			lp.C0[w>>6] |= level & 1 << uint(w&63)
			lp.C1[w>>6] |= level >> 1 & 1 << uint(w&63)
			lp.C2[w>>6] |= level >> 2 & 1 << uint(w&63)
		}
		for op := OpOR; op <= OpMAJ; op++ {
			got := EvalPlanes(op, lp, trd)
			for w := 0; w < n; w++ {
				if want := Eval(op, lp.Level(w), trd); got.Get(w) != want {
					t.Errorf("%v %v level %d: EvalPlanes %d, Eval %d", trd, op, lp.Level(w), got.Get(w), want)
				}
			}
		}
	}
}

func TestOpPadBits(t *testing.T) {
	if OpAND.PadBit() != 1 || OpNAND.PadBit() != 1 {
		t.Error("AND/NAND must pad with ones (Fig. 7a)")
	}
	for _, op := range []Op{OpOR, OpNOR, OpXOR, OpXNOR, OpNOT} {
		if op.PadBit() != 0 {
			t.Errorf("%v must pad with zeros (Fig. 7b)", op)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{OpOR: "OR", OpNAND: "NAND", OpMAJ: "MAJ"} {
		if got := op.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// trLevels senses every wire through TRAllPlanesInto and expands the
// level planes to one level per wire.
func trLevels(d *DBC) []int {
	lp := NewLevelPlanes(d.Width())
	d.TRAllPlanesInto(&lp)
	levels := make([]int, lp.N)
	for w := range levels {
		levels[w] = lp.Level(w)
	}
	return levels
}
