package pim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
)

// --- AddLarge --------------------------------------------------------------

func TestAddLargeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, k := range []int{1, 2, 5, 7, 9, 16, 33} {
			u := unitFor(t, trd, 64)
			operands := make([]dbc.Row, k)
			vals := make([][]uint64, k)
			for i := range operands {
				vals[i] = make([]uint64, 8)
				for l := range vals[i] {
					vals[i][l] = uint64(rng.Intn(256))
				}
				operands[i] = MustPackLanes(vals[i], 8, 64)
			}
			sum, err := u.AddLarge(operands, 8)
			if err != nil {
				t.Fatalf("%v k=%d: %v", trd, k, err)
			}
			got := UnpackLanes(sum, 8)
			for l := 0; l < 8; l++ {
				var want uint64
				for i := range vals {
					want += vals[i][l]
				}
				if got[l] != want&0xff {
					t.Fatalf("%v k=%d lane %d = %d, want %d", trd, k, l, got[l], want&0xff)
				}
			}
		}
	}
}

func TestAddChainedMatchesAddLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{3, 8, 20} {
		ul := unitFor(t, params.TRD7, 64)
		uc := unitFor(t, params.TRD7, 64)
		operands := make([]dbc.Row, k)
		for i := range operands {
			vals := make([]uint64, 8)
			for l := range vals {
				vals[l] = uint64(rng.Intn(256))
			}
			operands[i] = MustPackLanes(vals, 8, 64)
		}
		a, err := ul.AddLarge(operands, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uc.AddChained(operands, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("k=%d: AddLarge and AddChained disagree", k)
		}
	}
}

func TestAddLargeBeatsChainedAdds(t *testing.T) {
	// §III-D3: the 7→3 reductions make large reductions O(k) cheap
	// steps instead of O(k) full carry chains. For 33 operands at 32-bit
	// lanes the reduction path must win clearly.
	k := 33
	operands := make([]dbc.Row, k)
	for i := range operands {
		operands[i] = MustPackLanes([]uint64{uint64(i * 1000)}, 32, 64)
	}
	ul := unitFor(t, params.TRD7, 64)
	if _, err := ul.AddLarge(operands, 32); err != nil {
		t.Fatal(err)
	}
	large := ul.Stats().Cycles()
	uc := unitFor(t, params.TRD7, 64)
	if _, err := uc.AddChained(operands, 32); err != nil {
		t.Fatal(err)
	}
	chained := uc.Stats().Cycles()
	if float64(large) > 0.6*float64(chained) {
		t.Errorf("AddLarge %d cycles vs chained %d: expected a clear win", large, chained)
	}
}

func TestAddLargeErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	if _, err := u.AddLarge(nil, 8); err == nil {
		t.Error("no operands accepted")
	}
	if _, err := u.AddLarge([]dbc.Row{dbc.NewRow(32)}, 9); err == nil {
		t.Error("bad blocksize accepted")
	}
	if _, err := u.AddLarge([]dbc.Row{dbc.NewRow(4), dbc.NewRow(4)}, 8); err == nil {
		t.Error("wrong width accepted")
	}
}

// --- Max ablation -------------------------------------------------------

func TestMaxTRFullShiftExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for k := 2; k <= int(trd); k++ {
			u := unitFor(t, trd, 32)
			cands := make([]dbc.Row, k)
			vals := make([][]uint64, k)
			for i := range cands {
				vals[i] = make([]uint64, 4)
				for l := range vals[i] {
					vals[i][l] = uint64(rng.Intn(256))
				}
				cands[i] = MustPackLanes(vals[i], 8, 32)
			}
			got, err := u.MaxTRFullShift(cands, 8)
			if err != nil {
				t.Fatalf("%v k=%d: %v", trd, k, err)
			}
			res := UnpackLanes(got, 8)
			for l := 0; l < 4; l++ {
				var want uint64
				for i := range vals {
					if vals[i][l] > want {
						want = vals[i][l]
					}
				}
				if res[l] != want {
					t.Fatalf("%v k=%d lane %d = %d, want %d", trd, k, l, res[l], want)
				}
			}
		}
	}
}

// TestMaxTRFullShiftStaysOnTheWire runs the full-shift ablation under
// shift faults alone, at the 1.25% rate of the pinned fault stream, over
// many seeds: a mis-shift may corrupt the maximum, but no sweep may
// carry the head past the DBC's offset bounds ("push data off the
// wire"). Every sweep stays within TRD−1 of rest, so a handful of
// overshoots has room to land.
func TestMaxTRFullShiftStaysOnTheWire(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, k := range []int{2, int(trd)} {
			for _, bs := range []int{8, 16} {
				for seed := int64(1); seed <= 40; seed++ {
					u := unitFor(t, trd, 64)
					u.D.SetFaultInjector(device.NewFaultInjector(0, 0.0125, seed))
					rng := rand.New(rand.NewSource(seed))
					cands := make([]dbc.Row, k)
					for i := range cands {
						cands[i] = randBits(64, rng)
					}
					if _, err := u.MaxTRFullShift(cands, bs); err != nil {
						t.Fatalf("%v k=%d bs=%d seed %d: %v", trd, k, bs, seed, err)
					}
				}
			}
		}
	}
}

func TestTWSavesMaxCycles(t *testing.T) {
	// §IV-B: "TW for TRD = 7 reduces maximum function cycles by 28.5%".
	// Our choreography: TW rotation is 2 steps/candidate vs 3 with
	// whole-nanowire shifting → a ~30% saving; assert the band 20-40%.
	mk := func() []dbc.Row {
		cands := make([]dbc.Row, 7)
		for i := range cands {
			vals := make([]uint64, 4)
			for l := range vals {
				vals[l] = uint64((i*53 + l*17) % 256)
			}
			cands[i] = MustPackLanes(vals, 8, 32)
		}
		return cands
	}
	utw := unitFor(t, params.TRD7, 32)
	if _, err := utw.MaxTR(mk(), 8); err != nil {
		t.Fatal(err)
	}
	tw := utw.Stats().Cycles()
	ufs := unitFor(t, params.TRD7, 32)
	if _, err := ufs.MaxTRFullShift(mk(), 8); err != nil {
		t.Fatal(err)
	}
	fs := ufs.Stats().Cycles()
	saving := 1 - float64(tw)/float64(fs)
	if saving < 0.20 || saving > 0.40 {
		t.Errorf("TW saving = %.1f%% (TW %d vs full-shift %d), want ≈28.5%%", saving*100, tw, fs)
	}
}

// --- Per-step NMR addition -------------------------------------------------

func TestAddMultiNMRExactNoFaults(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	rows := make([]dbc.Row, 4)
	vals := make([][]uint64, 4)
	rng := rand.New(rand.NewSource(43))
	for i := range rows {
		vals[i] = make([]uint64, 8)
		for l := range vals[i] {
			vals[i][l] = uint64(rng.Intn(256))
		}
		rows[i] = MustPackLanes(vals[i], 8, 64)
	}
	sum, err := u.AddMultiNMR(3, rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := UnpackLanes(sum, 8)
	for l := 0; l < 8; l++ {
		var want uint64
		for i := range vals {
			want += vals[i][l]
		}
		if got[l] != want&0xff {
			t.Fatalf("lane %d = %d, want %d", l, got[l], want&0xff)
		}
	}
}

func TestAddMultiNMRCost(t *testing.T) {
	// Per-step voting triples the TR steps but not the placement/writes.
	base := unitFor(t, params.TRD7, 8)
	rows := []dbc.Row{MustPackLanes([]uint64{100}, 8, 8), MustPackLanes([]uint64{50}, 8, 8)}
	if _, err := base.AddMulti(rows, 8); err != nil {
		t.Fatal(err)
	}
	prot := unitFor(t, params.TRD7, 8)
	if _, err := prot.AddMultiNMR(3, rows, 8); err != nil {
		t.Fatal(err)
	}
	bs, ps := base.Stats(), prot.Stats()
	if ps.TRSteps != 3*bs.TRSteps {
		t.Errorf("TR steps %d, want %d", ps.TRSteps, 3*bs.TRSteps)
	}
	if ps.WriteSteps != bs.WriteSteps {
		t.Errorf("write steps %d, want unchanged %d", ps.WriteSteps, bs.WriteSteps)
	}
}

func TestAddMultiNMRBeatsEndVotingUnderFaults(t *testing.T) {
	// §III-F / §V-F: voting after each nanowire's S/C/C' computation
	// beats voting once at the end, because carry-chain corruption never
	// propagates. Compare empirically at an inflated fault rate.
	trials := 1200
	run := func(perStep bool, seed int64) int {
		cfg := testConfig(params.TRD7, 8)
		u := MustNewUnit(cfg)
		u.D.SetFaultInjector(device.NewFaultInjector(0.02, 0, seed))
		rng := rand.New(rand.NewSource(seed))
		wrong := 0
		for i := 0; i < trials; i++ {
			av, bv := uint64(rng.Intn(256)), uint64(rng.Intn(256))
			a := MustPackLanes([]uint64{av}, 8, 8)
			b := MustPackLanes([]uint64{bv}, 8, 8)
			var sum dbc.Row
			var err error
			if perStep {
				sum, err = u.AddMultiNMR(3, []dbc.Row{a, b}, 8)
			} else {
				sum, err = u.RunNMR(3, func() (dbc.Row, error) {
					return u.AddMulti([]dbc.Row{a, b}, 8)
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if UnpackLanes(sum, 8)[0] != (av+bv)&0xff {
				wrong++
			}
		}
		return wrong
	}
	end := run(false, 77)
	step := run(true, 77)
	if end == 0 {
		t.Skip("no end-voting failures at this fault rate")
	}
	if step >= end {
		t.Errorf("per-step voting (%d wrong) not better than end voting (%d wrong)", step, end)
	}
}

// TestAddMultiNMROperandLimitIsErrBadTRD: a voted add with more
// operands than the window takes reports params.ErrBadTRD, as AddMulti
// does.
func TestAddMultiNMROperandLimitIsErrBadTRD(t *testing.T) {
	u := unitFor(t, params.TRD7, 16)
	rows := zeroRows(u, 6)
	if _, err := u.AddMultiNMR(3, rows, 8); !errors.Is(err, params.ErrBadTRD) {
		t.Errorf("6-operand voted add at TRD 7: err = %v, want params.ErrBadTRD", err)
	}
	if _, err := u.AddMulti(rows, 8); !errors.Is(err, params.ErrBadTRD) {
		t.Errorf("6-operand add at TRD 7: err = %v, want params.ErrBadTRD", err)
	}
}

func TestAddMultiNMRRejectsBadN(t *testing.T) {
	u := unitFor(t, params.TRD5, 16)
	rows := []dbc.Row{dbc.NewRow(16), dbc.NewRow(16)}
	if _, err := u.AddMultiNMR(7, rows, 8); err == nil {
		t.Error("N=7 on TRD=5 accepted")
	}
	if _, err := u.AddMultiNMR(2, rows, 8); err == nil {
		t.Error("even N accepted")
	}
}
