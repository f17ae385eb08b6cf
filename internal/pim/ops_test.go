package pim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
)

// --- Multiplication -----------------------------------------------------

func TestMultiplyExactAllTRDs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for trial := 0; trial < 25; trial++ {
			u := unitFor(t, trd, 64) // four 16-bit product lanes
			a := []uint64{uint64(rng.Intn(256)), uint64(rng.Intn(256)), uint64(rng.Intn(256)), uint64(rng.Intn(256))}
			b := []uint64{uint64(rng.Intn(256)), uint64(rng.Intn(256)), uint64(rng.Intn(256)), uint64(rng.Intn(256))}
			got, err := u.MultiplyValues(a, b, 8)
			if err != nil {
				t.Fatalf("%v: %v", trd, err)
			}
			for l := range a {
				if got[l] != a[l]*b[l] {
					t.Fatalf("%v: %d × %d = %d, want %d", trd, a[l], b[l], got[l], a[l]*b[l])
				}
			}
		}
	}
}

func TestMultiplyProperty(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	check := func(a, b [4]uint8) bool {
		av := []uint64{uint64(a[0]), uint64(a[1]), uint64(a[2]), uint64(a[3])}
		bv := []uint64{uint64(b[0]), uint64(b[1]), uint64(b[2]), uint64(b[3])}
		got, err := u.MultiplyValues(av, bv, 8)
		if err != nil {
			return false
		}
		for l := range av {
			if got[l] != av[l]*bv[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMultiply16Bit(t *testing.T) {
	u := unitFor(t, params.TRD7, 64) // two 32-bit product lanes
	a := []uint64{40000, 12345}
	b := []uint64{65535, 54321}
	got, err := u.MultiplyValues(a, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	for l := range a {
		if got[l] != a[l]*b[l] {
			t.Fatalf("%d × %d = %d, want %d", a[l], b[l], got[l], a[l]*b[l])
		}
	}
}

func TestMultiplyCycleNearAnchor(t *testing.T) {
	// §V-B / Table III: 8-bit multiply is 64 cycles at TRD=7 and 105 at
	// TRD=3. Our choreography lands at 61 and grows monotonically as
	// the TRD shrinks; assert the anchor band (±15%) and the ordering.
	cycles := map[params.TRD]int{}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		u := unitFor(t, trd, 16)
		if _, err := u.MultiplyValues([]uint64{123}, []uint64{231}, 8); err != nil {
			t.Fatal(err)
		}
		cycles[trd] = u.Stats().Cycles()
	}
	if c := cycles[params.TRD7]; c < 54 || c > 74 {
		t.Errorf("TRD=7 8-bit multiply = %d cycles, want ≈64 (paper anchor)", c)
	}
	if !(cycles[params.TRD3] > cycles[params.TRD5] && cycles[params.TRD5] > cycles[params.TRD7]) {
		t.Errorf("multiply cycles not monotone in TRD: %v", cycles)
	}
}

func TestMultiplyRejectsOversizedValues(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	a := dbc.NewRow(32)
	b := dbc.NewRow(32)
	a.Set(12, 1) // bit 12 of lane 0 is in the high half for bw=8
	if _, err := u.Multiply(a, b, 8); err == nil {
		t.Error("operand with high-half bits accepted")
	}
}

func TestMultiplyErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	if _, err := u.MultiplyValues([]uint64{1}, []uint64{1, 2}, 8); err == nil {
		t.Error("mismatched operand counts accepted")
	}
	if _, err := u.Multiply(dbc.NewRow(8), dbc.NewRow(8), 8); err == nil {
		t.Error("wrong-width rows accepted")
	}
	if _, err := u.MultiplyValues([]uint64{1}, []uint64{1}, 32); err == nil {
		t.Error("product lane wider than track accepted")
	}
}

// --- Constant multiplication --------------------------------------------

func TestCSDRecoding(t *testing.T) {
	// The paper's example constant: 20061 has nine set bits but only
	// eight CSD digits, and CSD never has adjacent non-zeros.
	digits := CSD(20061)
	if got := CSDValue(digits); got != 20061 {
		t.Fatalf("CSD value = %d, want 20061", got)
	}
	if len(digits) >= 9 {
		t.Errorf("CSD of 20061 uses %d digits, want fewer than 9 set bits", len(digits))
	}
	for i := 1; i < len(digits); i++ {
		if digits[i].Shift == digits[i-1].Shift+1 {
			t.Errorf("adjacent non-zero digits at shifts %d,%d", digits[i-1].Shift, digits[i].Shift)
		}
	}
}

func TestCSDProperty(t *testing.T) {
	check := func(c uint32) bool {
		return CSDValue(CSD(uint64(c))) == int64(c)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanConstMul20061(t *testing.T) {
	// §III-D1: 20061·A takes two addition steps with a five-operand
	// adder.
	plan, err := PlanConstMul(20061, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AdditionSteps(); got != 2 {
		t.Errorf("20061 plan = %d addition steps, want 2", got)
	}
}

func TestPlanConstMulTwoOperand(t *testing.T) {
	plan, err := PlanConstMul(20061, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Binary fallback: 9 set bits → 9 groups of one term each... minus
	// the first group which can carry two? With budget 2 on the first
	// group and 1 after, expect 8 groups.
	if got := plan.AdditionSteps(); got != 8 {
		t.Errorf("two-operand 20061 plan = %d steps, want 8", got)
	}
}

func TestConstMultiplyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, c := range []uint64{0, 1, 2, 3, 5, 9, 20061, 255, 515, 65535} {
			u := unitFor(t, trd, 64) // two 32-bit product lanes
			av := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
			row := MustPackLanes(av, 32, 64)
			prod, err := u.ConstMultiply(row, c, 16)
			if err != nil {
				t.Fatalf("%v c=%d: %v", trd, c, err)
			}
			got := UnpackLanes(prod, 32)
			for l := range av {
				want := (av[l] * c) & 0xffffffff
				if got[l] != want {
					t.Fatalf("%v: %d × %d = %d, want %d", trd, av[l], c, got[l], want)
				}
			}
		}
	}
}

func TestConstMultiplyBeatsRepeatedAddition(t *testing.T) {
	// §III-D1: 20061·A in two addition steps is "a significant
	// improvement over adding 20061 copies of A". Naive repeated
	// five-operand addition needs ⌈20060/4⌉ ≈ 5015 add steps of ≥26
	// cycles; the recoded plan must be orders of magnitude below that.
	uc := unitFor(t, params.TRD7, 64)
	row := MustPackLanes([]uint64{4321, 99}, 32, 64)
	if _, err := uc.ConstMultiply(row, 20061, 16); err != nil {
		t.Fatal(err)
	}
	constCycles := uc.Stats().Cycles()
	naive := (20060 / 4) * 26
	if constCycles*100 >= naive {
		t.Errorf("constant multiply = %d cycles, not ≪ naive %d", constCycles, naive)
	}
}

// --- Max / ReLU ----------------------------------------------------------

func TestMaxTRExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for k := 2; k <= int(trd); k++ {
			u := unitFor(t, trd, 64)
			cands := make([]dbc.Row, k)
			vals := make([][]uint64, k)
			for i := range cands {
				vals[i] = make([]uint64, 8)
				for l := range vals[i] {
					vals[i][l] = uint64(rng.Intn(256))
				}
				cands[i] = MustPackLanes(vals[i], 8, 64)
			}
			got, err := u.MaxTR(cands, 8)
			if err != nil {
				t.Fatalf("%v k=%d: %v", trd, k, err)
			}
			res := UnpackLanes(got, 8)
			for l := 0; l < 8; l++ {
				var want uint64
				for i := range vals {
					if vals[i][l] > want {
						want = vals[i][l]
					}
				}
				if res[l] != want {
					t.Fatalf("%v k=%d lane %d max = %d, want %d", trd, k, l, res[l], want)
				}
			}
		}
	}
}

func TestMaxTRTies(t *testing.T) {
	// Fig. 8 discussion: several words equal to the max must still read
	// out correctly.
	u := unitFor(t, params.TRD7, 16)
	cands := []dbc.Row{
		MustPackLanes([]uint64{200, 7}, 8, 16),
		MustPackLanes([]uint64{200, 7}, 8, 16),
		MustPackLanes([]uint64{100, 7}, 8, 16),
	}
	got, err := u.MaxTR(cands, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := UnpackLanes(got, 8)
	if res[0] != 200 || res[1] != 7 {
		t.Errorf("max with ties = %v, want [200 7]", res)
	}
}

func TestMaxTRAllZero(t *testing.T) {
	u := unitFor(t, params.TRD7, 16)
	cands := []dbc.Row{dbc.NewRow(16), dbc.NewRow(16)}
	got, err := u.MaxTR(cands, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.OnesCount() != 0 {
		t.Fatalf("all-zero max has bits set: %v", got)
	}
}

func TestMaxTRProperty(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	check := func(a, b, c, d [4]uint8) bool {
		rows := make([]dbc.Row, 4)
		vals := [][4]uint8{a, b, c, d}
		for i, vs := range vals {
			u64 := make([]uint64, 4)
			for l, v := range vs {
				u64[l] = uint64(v)
			}
			rows[i] = MustPackLanes(u64, 8, 32)
		}
		got, err := u.MaxTR(rows, 8)
		if err != nil {
			return false
		}
		res := UnpackLanes(got, 8)
		for l := 0; l < 4; l++ {
			want := uint64(0)
			for i := range vals {
				if uint64(vals[i][l]) > want {
					want = uint64(vals[i][l])
				}
			}
			if res[l] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxTRUsesTW(t *testing.T) {
	// The segmented-shift rotation must be built from transverse writes
	// (§IV-B), with TRD reads+TWs per bit position.
	u := unitFor(t, params.TRD7, 16)
	cands := []dbc.Row{MustPackLanes([]uint64{5, 1}, 8, 16), MustPackLanes([]uint64{9, 2}, 8, 16)}
	if _, err := u.MaxTR(cands, 8); err != nil {
		t.Fatal(err)
	}
	s := u.Stats()
	if s.TWSteps != 8*7 {
		t.Errorf("TW steps = %d, want 56 (8 bits × TRD rotations)", s.TWSteps)
	}
	if s.ReadSteps != 8*7 {
		t.Errorf("read steps = %d, want 56", s.ReadSteps)
	}
}

func TestReLU(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	// Lanes: 100 (positive), 200 (MSB set → negative), 0, 127.
	row := MustPackLanes([]uint64{100, 200, 0, 127}, 8, 32)
	out, err := u.ReLU(row, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := UnpackLanes(out, 8)
	want := []uint64{100, 0, 0, 127}
	for l := range want {
		if got[l] != want[l] {
			t.Errorf("ReLU lane %d = %d, want %d", l, got[l], want[l])
		}
	}
}

// TestSubThenReLUIsPositivePart runs the paper's "pos − neg then
// rectify" idiom (§IV-C) on the kernels pimc's sub lowering and cnn's
// signed sums issue: ¬b from the gate's NOT, one add that folds in the
// +1 row, then ReLU. Negative differences rectify to zero, positive
// ones pass through.
func TestSubThenReLUIsPositivePart(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	a := MustPackLanes([]uint64{100, 10, 50, 0}, 8, 64)
	b := MustPackLanes([]uint64{30, 90, 50, 1}, 8, 64)
	nb, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{b})
	if err != nil {
		t.Fatal(err)
	}
	one := MustPackLanes([]uint64{1, 1, 1, 1, 1, 1, 1, 1}, 8, 64)
	diff, err := u.AddMulti([]dbc.Row{a, nb, one}, 8)
	if err != nil {
		t.Fatal(err)
	}
	relued, err := u.ReLU(diff, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := UnpackLanes(relued, 8)
	want := []uint64{70, 0, 0, 0, 0, 0, 0, 0}
	for l := range want {
		if got[l] != want[l] {
			t.Errorf("lane %d = %d, want %d", l, got[l], want[l])
		}
	}
}

// --- N-modular redundancy -------------------------------------------------

func TestVoteMajority(t *testing.T) {
	for _, tc := range []struct {
		trd params.TRD
		n   int
	}{{params.TRD3, 3}, {params.TRD5, 3}, {params.TRD5, 5}, {params.TRD7, 3}, {params.TRD7, 5}, {params.TRD7, 7}} {
		u := unitFor(t, tc.trd, 32)
		rng := rand.New(rand.NewSource(int64(tc.n) * int64(tc.trd)))
		replicas := make([]dbc.Row, tc.n)
		for i := range replicas {
			replicas[i] = randBits(32, rng)
		}
		got, err := u.Vote(replicas)
		if err != nil {
			t.Fatalf("%v N=%d: %v", tc.trd, tc.n, err)
		}
		for w := 0; w < 32; w++ {
			ones := 0
			for _, r := range replicas {
				ones += int(r.Get(w))
			}
			want := b2u(2*ones > tc.n)
			if got.Get(w) != want {
				t.Fatalf("%v N=%d wire %d vote = %d, want %d", tc.trd, tc.n, w, got.Get(w), want)
			}
		}
	}
}

func TestVoteRejectsInvalidN(t *testing.T) {
	u := unitFor(t, params.TRD5, 16)
	seven := make([]dbc.Row, 7)
	for i := range seven {
		seven[i] = dbc.NewRow(16)
	}
	if _, err := u.Vote(seven); err == nil {
		t.Error("N=7 on TRD=5 accepted")
	}
	if _, err := u.Vote(seven[:4]); err == nil {
		t.Error("even N accepted")
	}
}

func TestRunNMRCorrectsSingleFault(t *testing.T) {
	// TMR must mask any single faulty replica (§III-F).
	u := unitFor(t, params.TRD7, 16)
	correct := MustPackLanes([]uint64{0xAB, 0xCD}, 8, 16)
	faulty := MustPackLanes([]uint64{0xAB ^ 0x10, 0xCD}, 8, 16)
	call := 0
	got, err := u.RunNMR(3, func() (dbc.Row, error) {
		call++
		if call == 2 {
			return copyRow(faulty), nil
		}
		return copyRow(correct), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(correct) {
		t.Fatal("TMR failed to mask single fault")
	}
}

func TestRunNMR5CorrectsTwoFaults(t *testing.T) {
	u := unitFor(t, params.TRD7, 16)
	correct := MustPackLanes([]uint64{0x5A, 0x3C}, 8, 16)
	faulty := MustPackLanes([]uint64{0xFF, 0x00}, 8, 16)
	call := 0
	got, err := u.RunNMR(5, func() (dbc.Row, error) {
		call++
		if call <= 2 {
			return copyRow(faulty), nil
		}
		return copyRow(correct), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(correct) {
		t.Fatal("5MR failed to mask two faults")
	}
}

func TestNMRWithInjectedTRFaults(t *testing.T) {
	// End-to-end: with a high injected TR fault rate, TMR-protected
	// bulk ops must be right far more often than unprotected ones.
	width := 64
	runOnce := func(seed int64, nmr bool) int {
		cfg := testConfig(params.TRD7, width)
		u := MustNewUnit(cfg)
		u.D.SetFaultInjector(device.NewFaultInjector(0.02, 0, seed))
		rng := rand.New(rand.NewSource(seed))
		wrong := 0
		for trial := 0; trial < 50; trial++ {
			a, b := randBits(width, rng), randBits(width, rng)
			op := func() (dbc.Row, error) { return u.BulkBitwise(dbc.OpXOR, []dbc.Row{a, b}) }
			var got dbc.Row
			var err error
			if nmr {
				got, err = u.RunNMR(3, op)
			} else {
				got, err = op()
			}
			if err != nil {
				panic(err)
			}
			for w := 0; w < width; w++ {
				if got.Get(w) != a.Get(w)^b.Get(w) {
					wrong++
					break
				}
			}
		}
		return wrong
	}
	plain := runOnce(99, false)
	protected := runOnce(99, true)
	if plain == 0 {
		t.Skip("fault injection produced no plain-run errors; seed too benign")
	}
	if protected >= plain {
		t.Errorf("TMR wrong results %d not fewer than unprotected %d", protected, plain)
	}
}
