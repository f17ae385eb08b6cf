package memory

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// divModRows packs random dividend and divisor lanes at blocksize 8
// for a 32-wire track, with a zero divisor in lane 1.
func divModRows(rng *rand.Rand) (a, d dbc.Row, av, dv []uint64) {
	av, dv = make([]uint64, 4), make([]uint64, 4)
	for l := range av {
		av[l], dv[l] = rng.Uint64()&0xFF, rng.Uint64()&0x1F
	}
	dv[1] = 0
	return pim.MustPackLanes(av, 8, 32), pim.MustPackLanes(dv, 8, 32), av, dv
}

// wantDivMod is the scalar reference of one DivMod lane: the RISC-V
// convention makes x/0 all ones and x%0 x.
func wantDivMod(a, d uint64) (q, r uint64) {
	if d == 0 {
		return 0xFF, a
	}
	return a / d, a % d
}

// TestPairedDivModMatchesTwoRequests: on a fresh memory, one div
// request with a remainder destination stores the rows a div request
// followed by a mod request stores, bit for bit, and charges one
// DivMod kernel (and the mod's two operand reads) fewer.
func TestPairedDivModMatchesTwoRequests(t *testing.T) {
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	ops := []isa.Addr{{Tile: 1, Row: 0}, {Tile: 1, Row: 1}}
	q, r := isa.Addr{Tile: 2, Row: 0}, isa.Addr{Tile: 2, Row: 1}
	div := isa.Instruction{Op: isa.OpDiv, Src: pimAddr, Blocksize: 8, Operands: 2}
	mod := div
	mod.Op = isa.OpMod
	a, d, av, dv := divModRows(rand.New(rand.NewSource(3)))
	run := func(reqs []Request) (*Memory, dbc.Row) {
		m := testMemory(t)
		for i, row := range []dbc.Row{a, d} {
			if err := m.WriteRow(ops[i], row); err != nil {
				t.Fatal(err)
			}
		}
		m.SetTelemetry(nil) // count the requests alone
		var first dbc.Row
		for i, req := range reqs {
			res := m.ExecuteBatch([]Request{req})[0]
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if i == 0 {
				first = res.Row
			}
		}
		return m, first
	}
	sep, _ := run([]Request{{In: div, Operands: ops, Dst: q}, {In: mod, Operands: ops, Dst: r}})
	paired, quo := run([]Request{{In: div, Operands: ops, Dst: q, Rem: &r}})
	s, p := sep.Stats(), paired.Stats()

	for _, at := range []isa.Addr{q, r} {
		want, err1 := sep.ReadRow(at)
		got, err2 := paired.ReadRow(at)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !got.Equal(want) {
			t.Errorf("row %s: paired %v, separate requests %v", isa.FormatAddr(at), got, want)
		}
	}
	qs, rs := pim.UnpackLanes(quo, 8), pim.UnpackLanes(mustRead(t, paired, r), 8)
	for l := range av {
		if wq, wr := wantDivMod(av[l], dv[l]); qs[l] != wq || rs[l] != wr {
			t.Errorf("lane %d: %d/%d = %d rem %d, want %d rem %d", l, av[l], dv[l], qs[l], rs[l], wq, wr)
		}
	}

	u, err := pim.NewUnit(paired.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.DivMod(a, d, 8); err != nil {
		t.Fatal(err)
	}
	k := u.Stats()
	for _, c := range []struct {
		kind         string
		sep, pair, k int
	}{
		{"tr", s.TRSteps, p.TRSteps, k.TRSteps},
		{"write", s.WriteSteps, p.WriteSteps, k.WriteSteps},
		{"tw", s.TWSteps, p.TWSteps, k.TWSteps},
		{"copy", s.CopySteps, p.CopySteps, k.CopySteps},
		{"logic", s.LogicSteps, p.LogicSteps, k.LogicSteps},
		{"read", s.ReadSteps, p.ReadSteps, 2}, // the mod's operand reads
	} {
		if c.sep-c.pair != c.k {
			t.Errorf("%s steps: separate %d, paired %d, want one kernel's %d fewer", c.kind, c.sep, c.pair, c.k)
		}
	}
	if s.ShiftSteps-p.ShiftSteps < k.ShiftSteps {
		t.Errorf("shift steps: separate %d, paired %d, want at least one kernel's %d fewer", s.ShiftSteps, p.ShiftSteps, k.ShiftSteps)
	}
}

func mustRead(t *testing.T, m *Memory, a isa.Addr) dbc.Row {
	t.Helper()
	row, err := m.ReadRow(a)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestPairedDivModValidation pins the Rem contract at planning: a Rem
// outside the executing bank is ErrCrossDBC, and a Rem on anything but
// a div exec request, equal to Dst or outside the geometry is
// rejected; every rejection wraps ErrInvalidRequest and runs nothing.
func TestPairedDivModValidation(t *testing.T) {
	m := testMemory(t)
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	ops := []isa.Addr{{Tile: 1, Row: 0}, {Tile: 1, Row: 1}}
	dst := isa.Addr{Tile: 2, Row: 0}
	div := isa.Instruction{Op: isa.OpDiv, Src: pimAddr, Blocksize: 8, Operands: 2}
	mod, add := div, div
	mod.Op, add.Op = isa.OpMod, isa.OpAdd
	at := func(a isa.Addr) *isa.Addr { return &a }
	for _, c := range []struct {
		name  string
		req   Request
		cross bool
	}{
		{"rem in another bank", Request{In: div, Operands: ops, Dst: dst, Rem: at(isa.Addr{Bank: 1, Tile: 2, Row: 1})}, true},
		{"rem outside the geometry", Request{In: div, Operands: ops, Dst: dst, Rem: at(isa.Addr{Tile: 2, Row: 999})}, false},
		{"rem equal to dst", Request{In: div, Operands: ops, Dst: dst, Rem: at(dst)}, false},
		{"rem on mod", Request{In: mod, Operands: ops, Dst: dst, Rem: at(isa.Addr{Tile: 2, Row: 1})}, false},
		{"rem on add", Request{In: add, Operands: ops, Dst: dst, Rem: at(isa.Addr{Tile: 2, Row: 1})}, false},
		{"rem on copy", Request{Kind: KindCopy, Src: ops[0], Dst: dst, Rem: at(isa.Addr{Tile: 2, Row: 1})}, false},
	} {
		before := m.Stats()
		err := m.ExecuteBatch([]Request{c.req})[0].Err
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err %v, want ErrInvalidRequest", c.name, err)
		}
		if got := errors.Is(err, ErrCrossDBC); got != c.cross {
			t.Errorf("%s: errors.Is(err, ErrCrossDBC) = %v, want %v (err %v)", c.name, got, c.cross, err)
		}
		if m.Stats() != before {
			t.Errorf("%s: a rejected request charged device steps", c.name)
		}
	}
}

// TestPairedDivModRemainderInBatch: Rem's row joins the request's
// footprint, so later requests of the same ExecuteBatch that read it —
// a read and an exec — see the remainder, even when an earlier request
// of the batch touches Rem's DBC and would otherwise lead their group.
func TestPairedDivModRemainderInBatch(t *testing.T) {
	m := testMemory(t)
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	ops := []isa.Addr{{Tile: 1, Row: 0}, {Tile: 1, Row: 1}}
	q, r, sum := isa.Addr{Tile: 2, Row: 0}, isa.Addr{Tile: 3, Row: 5}, isa.Addr{Tile: 2, Row: 2}
	a, d, av, dv := divModRows(rand.New(rand.NewSource(8)))
	for i, row := range []dbc.Row{a, d} {
		if err := m.WriteRow(ops[i], row); err != nil {
			t.Fatal(err)
		}
	}
	res := m.ExecuteBatch([]Request{
		{Kind: KindWrite, Dst: isa.Addr{Tile: 3, Row: 6}, Row: a},
		{In: isa.Instruction{Op: isa.OpDiv, Src: pimAddr, Blocksize: 8, Operands: 2}, Operands: ops, Dst: q, Rem: &r},
		{Kind: KindRead, Src: r},
		{In: isa.Instruction{Op: isa.OpAdd, Src: pimAddr, Blocksize: 8, Operands: 2}, Operands: []isa.Addr{q, r}, Dst: sum},
	})
	for i, x := range res {
		if x.Err != nil {
			t.Fatalf("request %d: %v", i, x.Err)
		}
	}
	read, added := pim.UnpackLanes(res[2].Row, 8), pim.UnpackLanes(res[3].Row, 8)
	for l := range av {
		wq, wr := wantDivMod(av[l], dv[l])
		if read[l] != wr || added[l] != (wq+wr)&0xFF {
			t.Errorf("lane %d: read %d and q+r %d, want %d and %d", l, read[l], added[l], wr, (wq+wr)&0xFF)
		}
	}
}

// TestPairedDivModVerified runs paired divs under TR fault injection
// with duplicate-and-compare recovery: the quotient and the remainder
// are each verified, so every request that does not fail stores both
// rows bit-exact against a fault-free mirror.
func TestPairedDivModVerified(t *testing.T) {
	m := faultyMemory(t, FaultProfile{TRProb: 0.001, Seed: 21}, resilient.Policy{Verify: resilient.VerifyDup, MaxRetries: 3})
	mirror := testMemory(t)
	rng := rand.New(rand.NewSource(21))
	div := isa.Instruction{Op: isa.OpDiv, Src: isa.Addr{Tile: 0, DBC: 15}, Blocksize: 8, Operands: 2}
	ok := 0
	const n = 40
	for i := 0; i < n; i++ {
		// Every request gets its own rows, so a failed one leaves
		// nothing a later one reads.
		ops := []isa.Addr{{Tile: 1, Row: 2 * (i % 16)}, {Tile: 1, Row: 2*(i%16) + 1}}
		ops[0].DBC, ops[1].DBC = i/16, i/16
		q, r := isa.Addr{Tile: 2, DBC: i / 16, Row: i % 16}, isa.Addr{Tile: 2, DBC: i / 16, Row: 16 + i%16}
		a, d, _, _ := divModRows(rng)
		req := Request{In: div, Operands: ops, Dst: q, Rem: &r}
		for _, mm := range []*Memory{m, mirror} {
			for j, row := range []dbc.Row{a, d} {
				if err := mm.WriteRow(ops[j], row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := mirror.ExecuteBatch([]Request{req})[0].Err; err != nil {
			t.Fatal(err)
		}
		if err := m.ExecuteBatch([]Request{req})[0].Err; err != nil {
			if !errors.Is(err, resilient.ErrUnverified) {
				t.Fatalf("request %d: %v", i, err)
			}
			continue
		}
		ok++
		for _, at := range []isa.Addr{q, r} {
			if got, want := mustRead(t, m, at), mustRead(t, mirror, at); !got.Equal(want) {
				t.Errorf("request %d: row %s = %v, fault-free mirror %v", i, isa.FormatAddr(at), got, want)
			}
		}
	}
	if m.Health().TotalDetected == 0 {
		t.Fatal("no faults detected: the test exercises nothing")
	}
	if ok < n/2 {
		t.Errorf("only %d of %d requests verified", ok, n)
	}
	t.Logf("%d of %d paired requests verified, %d faults detected", ok, n, m.Health().TotalDetected)
}
