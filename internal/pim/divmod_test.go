package pim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
)

// TestDivModDifferential checks the restoring divider bit-identically
// against Go integer division, across TRDs, lane widths and randomized
// operands, with divide-by-zero lanes mixed in (quotient all-ones,
// remainder = dividend — the RISC-V convention).
func TestDivModDifferential(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, bs := range []int{8, 16, 32, 64} {
			width := 4 * bs
			u := unitFor(t, trd, width)
			rng := rand.New(rand.NewSource(int64(trd)*1000 + int64(bs)))
			lanes := width / bs
			mask := uint64(1)<<uint(bs) - 1
			if bs == 64 {
				mask = ^uint64(0)
			}
			for iter := 0; iter < 8; iter++ {
				a := make([]uint64, lanes)
				d := make([]uint64, lanes)
				for l := range a {
					a[l] = rng.Uint64() & mask
					switch rng.Intn(4) {
					case 0:
						d[l] = 0 // divide-by-zero lane
					case 1:
						d[l] = rng.Uint64() & mask >> (uint(rng.Intn(bs)) % 64) // small divisor
					default:
						d[l] = rng.Uint64() & mask
					}
				}
				rq, rr, err := u.DivMod(MustPackLanes(a, bs, width), MustPackLanes(d, bs, width), bs)
				if err != nil {
					t.Fatal(err)
				}
				q, r := UnpackLanes(rq, bs), UnpackLanes(rr, bs)
				for l := range a {
					wantQ, wantR := mask, a[l]
					if d[l] != 0 {
						wantQ, wantR = a[l]/d[l], a[l]%d[l]
					}
					if q[l] != wantQ || r[l] != wantR {
						t.Fatalf("trd=%v bs=%d lane %d: %d /%% %d = (%d,%d), want (%d,%d)",
							trd, bs, l, a[l], d[l], q[l], r[l], wantQ, wantR)
					}
				}
			}
		}
	}
}

// TestDivModWideLanes exercises lanes wider than a word (the generic
// bit paths of the lane helpers).
func TestDivModWideLanes(t *testing.T) {
	u := unitFor(t, params.TRD7, 256)
	a := MustPackLanes([]uint64{1<<63 + 12345, 999}, 128, 256)
	d := MustPackLanes([]uint64{1 << 20, 7}, 128, 256)
	q, r, err := u.DivMod(a, d, 128)
	if err != nil {
		t.Fatal(err)
	}
	qs := UnpackLanes(q, 128)
	rs := UnpackLanes(r, 128)
	wantQ0 := (uint64(1)<<63 + 12345) / (1 << 20)
	wantR0 := (uint64(1)<<63 + 12345) % (1 << 20)
	if qs[0] != wantQ0 || rs[0] != wantR0 || qs[1] != 999/7 || rs[1] != 999%7 {
		t.Fatalf("wide-lane divide: got q=%v r=%v", qs[:2], rs[:2])
	}
}

// TestDivModErrors covers argument validation.
func TestDivModErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	a := MustPackLanes([]uint64{1}, 8, 64)
	if _, _, err := u.DivMod(a, a, 5); err == nil {
		t.Fatal("invalid blocksize accepted")
	}
	short := MustPackLanes([]uint64{1}, 8, 8)
	if _, _, err := u.DivMod(a, short, 8); err == nil {
		t.Fatal("mismatched width accepted")
	}
}

// divOperands packs one 512-wire row pair of bs-bit lanes for the
// divider's trace and fault tests: random dividends, and divisors of
// about half their width so quotients have set bits throughout.
func divOperands(seed int64, bs int) (a, d dbc.Row) {
	const width = 512
	rng := rand.New(rand.NewSource(seed))
	av := make([]uint64, width/bs)
	dv := make([]uint64, width/bs)
	for l := range av {
		av[l] = rng.Uint64() >> uint(64-bs)
		dv[l] = rng.Uint64()>>uint(64-bs+bs/2) | 1
	}
	return MustPackLanes(av, bs, width), MustPackLanes(dv, bs, width)
}

// TestDivModTrace pins the divider table of EXPERIMENTS.md ("Beyond the
// paper: the restoring divider") exactly: the device steps, cycles and
// energy of one 512-wire row on a fresh unit. At TRD 5 and 7 the
// subtrahend stays in the window, so every quotient bit after the first
// rewrites only the remainder's slot — two shifts and one write where
// re-placing all three rows would cost six shifts and three writes — so
// the row costs 6·(bs−1) cycles less than placing the window per bit
// (perBit).
// The TRs (one NOT pass, then one chain of bs TRs per bit, two chains
// at TRD 3) and the predicated copies (one per bit) do not change. The
// TRD=3 window has no spare slot and keeps its cost.
func TestDivModTrace(t *testing.T) {
	for _, c := range []struct {
		trd                                 params.TRD
		bs                                  int
		shifts, trs, writes, copies, cycles int
		energy                              string
		perBit                              int // cycles with every bit re-placing the window
	}{
		{params.TRD3, 8, 39, 129, 161, 8, 337, "12757.5", 337},
		{params.TRD3, 16, 79, 513, 577, 16, 1185, "25217.5", 1185},
		{params.TRD3, 32, 159, 2049, 2177, 32, 4417, "50137.6", 4417},
		{params.TRD5, 8, 25, 65, 75, 8, 173, "8922.6", 215},
		{params.TRD5, 16, 49, 257, 275, 16, 597, "17208.8", 687},
		{params.TRD5, 32, 97, 1025, 1059, 32, 2213, "33781.2", 2399},
		{params.TRD7, 8, 25, 65, 75, 8, 173, "10590.7", 215},
		{params.TRD7, 16, 49, 257, 275, 16, 597, "20359.7", 687},
		{params.TRD7, 32, 97, 1025, 1059, 32, 2213, "39897.6", 2399},
	} {
		a, d := divOperands(1, c.bs)
		u := unitFor(t, c.trd, 512)
		if _, _, err := u.DivMod(a, d, c.bs); err != nil {
			t.Fatal(err)
		}
		st := u.Stats()
		got := fmt.Sprintf("%d/%d/%d/%d %d/%.1f", st.ShiftSteps, st.TRSteps, st.WriteSteps, st.CopySteps, st.Cycles(), u.Cost().EnergyPJ)
		want := fmt.Sprintf("%d/%d/%d/%d %d/%s", c.shifts, c.trs, c.writes, c.copies, c.cycles, c.energy)
		if got != want {
			t.Errorf("%v bs=%d: shifts/TRs/writes/copies cycles/pJ %s, want %s", c.trd, c.bs, got, want)
		}
		chains, saved := 1, 6*(c.bs-1)
		if c.trd == params.TRD3 {
			chains, saved = 2, 0
		}
		if c.trs != 1+chains*c.bs*c.bs || c.copies != c.bs || c.perBit-c.cycles != saved {
			t.Errorf("%v bs=%d: table row breaks the step model (TRs %d, copies %d, %d cycles saved)", c.trd, c.bs, c.trs, c.copies, c.perBit-c.cycles)
		}
	}
}

// TestDivModFaultReach: the quotient bit is the carry-out the chain's
// TRs sense, so injected TR faults reach the quotient — the first
// quotient bit included, which no faulted difference can reach through
// the remainder. At TRProb 0 the injector changes nothing.
func TestDivModFaultReach(t *testing.T) {
	const bs, seeds = 8, 20
	a, d := divOperands(3, bs)
	run := func(p float64, seed int64) (q, r dbc.Row) {
		u := unitFor(t, params.TRD7, 512)
		u.D.SetFaultInjector(device.NewFaultInjector(p, 0, seed))
		q, r, err := u.DivMod(a, d, bs)
		if err != nil {
			t.Fatal(err)
		}
		return q, r
	}
	cleanQ, cleanR := run(0, 0)
	var differ, topDiffer int
	for seed := int64(1); seed <= seeds; seed++ {
		if q, r := run(0, seed); !q.Equal(cleanQ) || !r.Equal(cleanR) {
			t.Fatalf("seed %d: the divide differs from the clean run at TRProb 0", seed)
		}
		q, _ := run(1e-2, seed)
		if !q.Equal(cleanQ) {
			differ++
		}
		for l := 0; l < q.N/bs; l++ {
			if msb := l*bs + bs - 1; q.Get(msb) != cleanQ.Get(msb) {
				topDiffer++
				break
			}
		}
	}
	t.Logf("TRProb 1e-2: %d of %d faulted quotients differ from the clean run, %d in the first quotient bit", differ, seeds, topDiffer)
	if differ == 0 || topDiffer == 0 {
		t.Errorf("TR faults never reached the quotient: %d of %d differ, %d in the first bit", differ, seeds, topDiffer)
	}
}

// TestDivModCharges pins the divider to the device cost model: every
// quotient bit costs one doubling shift, one predicated copy and one
// carry-chain subtraction, so shifts and TRs must scale with the lane
// width.
func TestDivModCharges(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	a := MustPackLanes([]uint64{200}, 8, 64)
	d := MustPackLanes([]uint64{7}, 8, 64)
	u.ResetStats()
	if _, _, err := u.DivMod(a, d, 8); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.TRSteps < 8 || st.ShiftSteps < 8 || st.CopySteps < 8 {
		t.Fatalf("divider under-charged: %+v", st)
	}
}
