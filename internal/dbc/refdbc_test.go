package dbc

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/trace"
)

// refDBC is a wire-by-wire reference implementation of the DBC built on
// the single-wire device.Nanowire model. It mirrors the packed engine's
// operation semantics — including the order in which fault-injector
// randomness is consumed and the trace accounting rules — so a DBC and a
// refDBC driven by the same op sequence with same-seeded injectors must
// stay bit-identical in state, TR levels and stats.
type refDBC struct {
	wires []*device.Nanowire
	width int
	trd   params.TRD
	inj   *device.FaultInjector
	stats trace.Stats
}

func newRefDBC(width, rows int, trd params.TRD) *refDBC {
	r := &refDBC{width: width, trd: trd}
	r.wires = make([]*device.Nanowire, width)
	for i := range r.wires {
		w, err := device.NewNanowire(rows, trd)
		if err != nil {
			panic(err)
		}
		r.wires[i] = w
	}
	return r
}

func (d *refDBC) loadRow(r int, bits Row) {
	for i, w := range d.wires {
		w.SetRow(r, bits.Get(i))
	}
}

func (d *refDBC) peekRow(r int) Row {
	out := NewRow(d.width)
	for i, w := range d.wires {
		out.Set(i, w.PeekRow(r))
	}
	return out
}

// shift mirrors DBC.Shift: one injector draw per intended step, the
// resulting 1+e physical steps applied to every wire, one trace event.
func (d *refDBC) shift(steps int) error {
	dir := 1
	if steps < 0 {
		dir, steps = -1, -steps
	}
	for i := 0; i < steps; i++ {
		n := 1
		if e := d.inj.ShiftError(); e != 0 {
			n += e * dir
		}
		for j := 0; j < n; j++ {
			for _, w := range d.wires {
				var err error
				if dir > 0 {
					err = w.ShiftRight()
				} else {
					err = w.ShiftLeft()
				}
				if err != nil {
					return err
				}
			}
		}
		d.stats.ShiftSteps++
		d.stats.ShiftWires += d.width
	}
	return nil
}

func (d *refDBC) writePort(s device.Side, bits Row) {
	for i, w := range d.wires {
		w.WritePort(s, bits.Get(i))
	}
	d.stats.WriteSteps++
	d.stats.WriteBits += d.width
}

func (d *refDBC) readPort(s device.Side) Row {
	out := NewRow(d.width)
	for i, w := range d.wires {
		out.Set(i, w.ReadPort(s))
	}
	d.stats.ReadSteps++
	d.stats.ReadBits += d.width
	return out
}

// trAll mirrors DBC.TRAllPlanesInto: the injector is consumed through
// TRFaultMasks (wire-order draws) and applied as the scalar clamp.
func (d *refDBC) trAll() []int {
	levels := make([]int, d.width)
	for i, w := range d.wires {
		levels[i] = w.TR()
	}
	if flip, up, any := d.inj.TRFaultMasks(d.width); any {
		for i := range levels {
			if flip[i>>6]>>uint(i&63)&1 == 0 {
				continue
			}
			if up[i>>6]>>uint(i&63)&1 != 0 {
				if levels[i] < int(d.trd) {
					levels[i]++
				}
			} else if levels[i] > 0 {
				levels[i]--
			}
		}
	}
	d.stats.TRSteps++
	d.stats.TRWires += d.width
	return levels
}

// trMasked mirrors DBC.TRMaskedInto on the wires of sel, in increasing
// order: one PerturbTR draw per selected wire; unselected wires read 0.
func (d *refDBC) trMasked(sel []int) []int {
	levels := make([]int, d.width)
	for _, wi := range sel {
		levels[wi] = d.inj.PerturbTR(d.wires[wi].TR(), int(d.trd))
	}
	d.stats.TRSteps++
	d.stats.TRWires += len(sel)
	return levels
}

func (d *refDBC) tw(bits Row) {
	for i, w := range d.wires {
		w.TW(bits.Get(i))
	}
	d.stats.TWSteps++
	d.stats.TWBits += d.width
}

// runDifferential drives one freshly built (DBC, refDBC) pair through a
// random op sequence and fails on any divergence in row state, port
// reads, TR levels, offsets or trace stats.
func runDifferential(t *testing.T, trd params.TRD, seed int64, faulty bool) {
	t.Helper()
	const width, rows = 67, 32
	d := MustNew(width, rows, trd)
	tr := &trace.Tracer{}
	d.SetTracer(tr)
	ref := newRefDBC(width, rows, trd)
	if faulty {
		// Same-seeded injectors: both engines must consume the identical
		// random stream in the identical order.
		d.SetFaultInjector(device.NewFaultInjector(0.05, 0.05, seed))
		ref.inj = device.NewFaultInjector(0.05, 0.05, seed)
	}
	rng := rand.New(rand.NewSource(seed))

	for r := 0; r < rows; r++ {
		row := randRow(width, rng)
		d.LoadRow(r, row)
		ref.loadRow(r, row)
	}

	maxOff := 0
	switch trd {
	case params.TRD3:
		maxOff = 1
	case params.TRD5:
		maxOff = 2
	default:
		maxOff = 3
	}
	for step := 0; step < 16; step++ {
		switch rng.Intn(7) {
		case 0: // bounded shift (margin 1 for shift-fault overshoot)
			delta := rng.Intn(3) - 1
			if off := d.Offset(); off+delta < -maxOff || off+delta > maxOff {
				delta = -delta
			}
			errD := d.Shift(delta)
			errR := ref.shift(delta)
			if (errD == nil) != (errR == nil) {
				t.Fatalf("trd=%v seed=%d step %d: shift legality diverged (%v vs %v)", trd, seed, step, errD, errR)
			}
			if errD != nil {
				return // both engines rejected the same illegal excursion
			}
		case 1: // port write
			side := device.Side(rng.Intn(2))
			bits := randRow(width, rng)
			d.WritePort(side, bits)
			ref.writePort(side, bits)
		case 2: // port read
			side := device.Side(rng.Intn(2))
			if got, want := d.ReadPort(side), ref.readPort(side); !got.Equal(want) {
				t.Fatalf("trd=%v seed=%d step %d: ReadPort %v diverged:\n got %v\nwant %v", trd, seed, step, side, got, want)
			}
		case 3: // whole-DBC transverse read
			got := trLevels(d)
			want := ref.trAll()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trd=%v seed=%d step %d: TRAllPlanesInto wire %d = %d, want %d", trd, seed, step, i, got[i], want[i])
				}
			}
		case 4: // masked transverse read on a random wire subset
			// The mask draws in wire order, so the reference senses the
			// selection sorted.
			sel := rng.Perm(width)[:1+rng.Intn(width)]
			sort.Ints(sel)
			mask := NewRow(width)
			for _, w := range sel {
				mask.Set(w, 1)
			}
			lp := NewLevelPlanes(width)
			d.TRMaskedInto(&lp, mask.Words, len(sel))
			want := ref.trMasked(sel)
			for i := range want {
				if got := lp.Level(i); got != want[i] {
					t.Fatalf("trd=%v seed=%d step %d: TRMaskedInto wire %d = %d, want %d", trd, seed, step, i, got, want[i])
				}
			}
		case 5: // transverse write
			bits := randRow(width, rng)
			d.TW(bits)
			ref.tw(bits)
		case 6: // full state audit
			if d.Offset() != ref.wires[0].Offset() {
				t.Fatalf("trd=%v seed=%d step %d: offset %d vs %d", trd, seed, step, d.Offset(), ref.wires[0].Offset())
			}
			for r := 0; r < rows; r++ {
				if got, want := d.PeekRow(r), ref.peekRow(r); !got.Equal(want) {
					t.Fatalf("trd=%v seed=%d step %d: row %d diverged:\n got %v\nwant %v", trd, seed, step, r, got, want)
				}
			}
		}
	}
	if got := tr.Stats(); got != ref.stats {
		t.Fatalf("trd=%v seed=%d: trace stats diverged:\n got %+v\nwant %+v", trd, seed, got, ref.stats)
	}
	for r := 0; r < rows; r++ {
		if got, want := d.PeekRow(r), ref.peekRow(r); !got.Equal(want) {
			t.Fatalf("trd=%v seed=%d: final row %d diverged", trd, seed, r)
		}
	}
}

// TestDBCDifferentialVsNanowireRef runs ≥1000 random op sequences per
// TRD against the wire-by-wire reference, fault-free.
func TestDBCDifferentialVsNanowireRef(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for seq := 0; seq < n; seq++ {
			runDifferential(t, trd, int64(seq), false)
		}
	}
}

// TestDBCDifferentialVsNanowireRefFaulty repeats the differential run
// with TR and shift fault injection enabled on both engines.
func TestDBCDifferentialVsNanowireRefFaulty(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for seq := 0; seq < n; seq++ {
			runDifferential(t, trd, 10_000+int64(seq), true)
		}
	}
}

// TestPeekReturnsOwnedCopies: rows handed out by PeekRow, ReadPort and
// PeekWindow must be detached from domain state — mutating them must not
// write through to the DBC (regression for the historical aliasing bug
// where the backing slice was shared).
func TestPeekReturnsOwnedCopies(t *testing.T) {
	d := MustNew(16, 32, params.TRD7)
	orig := FromBits(1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)
	d.LoadRow(5, orig)

	peek := d.PeekRow(5)
	for i := 0; i < peek.Len(); i++ {
		peek.Set(i, 1-peek.Get(i))
	}
	if !d.PeekRow(5).Equal(orig) {
		t.Fatal("mutating PeekRow result wrote through to DBC state")
	}

	row := d.RowAtPort(device.Left)
	before := d.PeekRow(row)
	got := d.ReadPort(device.Left)
	for i := 0; i < got.Len(); i++ {
		got.Set(i, 1)
	}
	if !d.PeekRow(row).Equal(before) {
		t.Fatal("mutating ReadPort result wrote through to DBC state")
	}

	win := d.PeekWindow(0)
	snapWin := win.Clone()
	for i := 0; i < win.Len(); i++ {
		win.Set(i, 1-win.Get(i))
	}
	if !d.PeekWindow(0).Equal(snapWin) {
		t.Fatal("mutating PeekWindow result wrote through to DBC state")
	}

	// LoadRow must copy its argument, not capture it.
	src := FromBits(1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0)
	d.LoadRow(7, src)
	snap := d.PeekRow(7)
	src.Set(0, 0)
	if !d.PeekRow(7).Equal(snap) {
		t.Fatal("mutating the LoadRow source wrote through to DBC state")
	}
}
