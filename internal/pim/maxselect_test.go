package pim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
)

// maxSelectPair fills lane l of a and b with the lane shape l+trial
// selects, so every shape appears at every blocksize over eight trials:
// random values, ties, all-zero and all-ones lanes, one lane all ones
// against the other all zeros (both ways round), and pairs that differ
// only in the LSB or only in the MSB.
func maxSelectPair(rng *rand.Rand, a, b dbc.Row, bs, trial int) {
	for l := 0; l < a.N/bs; l++ {
		base := l * bs
		for j := 0; j < bs; j++ {
			x := uint8(rng.Intn(2))
			y := uint8(rng.Intn(2))
			switch (l + trial) % 8 {
			case 1: // tie
				y = x
			case 2:
				x, y = 0, 0
			case 3:
				x, y = 1, 1
			case 4:
				x, y = 0, 1
			case 5:
				x, y = 1, 0
			case 6: // differ in the LSB only
				y = x
				if j == 0 {
					y = 1 - x
				}
			case 7: // differ in the MSB only
				y = x
				if j == bs-1 {
					y = 1 - x
				}
			}
			a.Set(base+j, x)
			b.Set(base+j, y)
		}
	}
}

// scalarMax is the reference: per lane, the larger of a and b by an
// MSB-first bit compare.
func scalarMax(a, b dbc.Row, bs int) dbc.Row {
	out := dbc.NewRow(a.N)
	for l := 0; l < a.N/bs; l++ {
		base := l * bs
		src := a
		for j := bs - 1; j >= 0; j-- {
			if x, y := a.Get(base+j), b.Get(base+j); x != y {
				if y > x {
					src = b
				}
				break
			}
		}
		for j := 0; j < bs; j++ {
			out.Set(base+j, src.Get(base+j))
		}
	}
	return out
}

// TestCarryOutSensesLaneOverflow holds addPlacedInto's carry-out
// destination to integer arithmetic: for every operand count the window
// adds, a lane's bit is set at its MSB wire exactly when the lane sum
// reaches 2^bs, and nowhere else. The trial subtraction never drives a
// super-carry past the lane (its sum stays below 2^(bs+1)), so a lane
// of three 3<<(bs−3) operands, whose only carry out is the C' of wire
// bs−2, checks that path.
func TestCarryOutSensesLaneOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const width = 64
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		u := unitFor(t, trd, width)
		hasCp := trd.HasSuperCarry()
		for _, bs := range []int{8, 16} {
			lanes := width / bs
			for k := 2; k <= u.maxAddOperands(); k++ {
				for trial := 0; trial < 8; trial++ {
					vals := make([][]uint64, k)
					rows := make([]dbc.Row, k)
					for i := range rows {
						vals[i] = make([]uint64, lanes)
						for l := range vals[i] {
							vals[i][l] = rng.Uint64() & (1<<uint(bs) - 1)
							if l == 0 {
								vals[i][l] = 3 << uint(bs-3)
							}
						}
						rows[i] = MustPackLanes(vals[i], bs, width)
					}
					sum, cout := dbc.NewRow(width), dbc.NewRow(width)
					u.enterOp()
					if err := u.placeWindow(rows, placement{finalShift: hasCp}); err != nil {
						t.Fatal(err)
					}
					u.addPlacedInto(sum, bs, hasCp, 1, cout.Words)
					u.exitOp()
					want := dbc.NewRow(width)
					for l := 0; l < lanes; l++ {
						var total uint64
						for i := range vals {
							total += vals[i][l]
						}
						if total>>uint(bs) != 0 {
							want.Set(l*bs+bs-1, 1)
						}
					}
					if !cout.Equal(want) {
						t.Fatalf("%v bs=%d k=%d trial %d: carry-out %v, want %v", trd, bs, k, trial, cout, want)
					}
				}
			}
		}
	}
}

// TestMaxSelectMatchesMaxTR is the compare-select kernel's differential
// test: at every blocksize from 8 to 512 and at TRD 3, 5 and 7, its
// result is bit-identical to the TW tournament's over the same two
// candidates and to the scalar reference, ties, all-zero and all-ones
// lanes included.
func TestMaxSelectMatchesMaxTR(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width = 512
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		u := unitFor(t, trd, width)
		for _, bs := range params.BlockSizes {
			for trial := 0; trial < 8; trial++ {
				a, b := dbc.NewRow(width), dbc.NewRow(width)
				maxSelectPair(rng, a, b, bs, trial)
				want := scalarMax(a, b, bs)
				got, err := u.MaxSelect(a, b, bs)
				if err != nil {
					t.Fatalf("%v bs=%d: %v", trd, bs, err)
				}
				tr, err := u.MaxTR([]dbc.Row{a, b}, bs)
				if err != nil {
					t.Fatalf("%v bs=%d: MaxTR: %v", trd, bs, err)
				}
				if !got.Equal(want) || !tr.Equal(want) {
					t.Fatalf("%v bs=%d trial %d: select %v, MaxTR %v, reference %v", trd, bs, trial, got, tr, want)
				}
			}
		}
	}
}

// TestMaxSelectTrace pins the two-candidate max table of EXPERIMENTS.md
// ("Beyond the paper: two-candidate max") exactly: the cycles and energy
// of one 512-wire row on a fresh unit, the TW tournament against the
// compare-select. The select is one 3-operand add (two chained adds at
// TRD 3) plus the NOT pass and one predicated copy, so it grows by two
// cycles per lane bit where the tournament grows by 2·TRD+1.
func TestMaxSelectTrace(t *testing.T) {
	for _, c := range []struct {
		trd       params.TRD
		bs        int
		tr, sel   int
		trE, selE string
	}{
		{params.TRD7, 8, 124, 25, "8002.6", "2126.1"},
		{params.TRD7, 16, 244, 41, "14310.4", "2135.7"},
		{params.TRD7, 32, 484, 73, "26926.1", "2140.5"},
		{params.TRD5, 8, 92, 25, "5829.6", "1755.4"},
		{params.TRD3, 8, 60, 42, "3656.7", "1893.4"},
	} {
		const width = 512
		a, b := dbc.NewRow(width), dbc.NewRow(width)
		maxSelectPair(rand.New(rand.NewSource(1)), a, b, c.bs, 0)
		ut := unitFor(t, c.trd, width)
		if _, err := ut.MaxTR([]dbc.Row{a, b}, c.bs); err != nil {
			t.Fatal(err)
		}
		us := unitFor(t, c.trd, width)
		if _, err := us.MaxSelect(a, b, c.bs); err != nil {
			t.Fatal(err)
		}
		tc, sc := ut.Cost(), us.Cost()
		got := fmt.Sprintf("%d/%.1f %d/%.1f", ut.Stats().Cycles(), tc.EnergyPJ, us.Stats().Cycles(), sc.EnergyPJ)
		if want := fmt.Sprintf("%d/%s %d/%s", c.tr, c.trE, c.sel, c.selE); got != want {
			t.Errorf("%v bs=%d: MaxTR and select cost %s, want %s", c.trd, c.bs, got, want)
		}
	}
}

// TestMaxSelectFaultReach: the select bit is the carry-out the chain's
// TRs sense, so injected TR faults reach the result, as they reach the
// TW tournament's. At TRProb 0 the injector changes nothing.
func TestMaxSelectFaultReach(t *testing.T) {
	const width, bs, seeds = 512, 8, 20
	a, b := dbc.NewRow(width), dbc.NewRow(width)
	maxSelectPair(rand.New(rand.NewSource(5)), a, b, bs, 0)
	clean := scalarMax(a, b, bs)
	run := func(p float64, seed int64, tournament bool) dbc.Row {
		u := unitFor(t, params.TRD7, width)
		u.D.SetFaultInjector(device.NewFaultInjector(p, 0, seed))
		var got dbc.Row
		var err error
		if tournament {
			got, err = u.MaxTR([]dbc.Row{a, b}, bs)
		} else {
			got, err = u.MaxSelect(a, b, bs)
		}
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	var selDiff, trDiff int
	for seed := int64(1); seed <= seeds; seed++ {
		if !run(0, seed, false).Equal(clean) {
			t.Fatalf("seed %d: select differs from the clean max at TRProb 0", seed)
		}
		if !run(1e-2, seed, false).Equal(clean) {
			selDiff++
		}
		if !run(1e-2, seed, true).Equal(clean) {
			trDiff++
		}
	}
	t.Logf("TRProb 1e-2: %d of %d faulted selects and %d of %d faulted tournaments differ from the clean max", selDiff, seeds, trDiff, seeds)
	if selDiff == 0 || trDiff == 0 {
		t.Errorf("TR faults never reached the result: %d selects, %d tournaments of %d differ", selDiff, trDiff, seeds)
	}
}
