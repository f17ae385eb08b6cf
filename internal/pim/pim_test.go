package pim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// testConfig returns a narrow unit configuration for fast tests.
func testConfig(trd params.TRD, width int) params.Config {
	cfg := params.DefaultConfig()
	cfg.TRD = trd
	cfg.Geometry.TrackWidth = width
	return cfg
}

func unitFor(t *testing.T, trd params.TRD, width int) *Unit {
	t.Helper()
	u, err := NewUnit(testConfig(trd, width))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUnitStatsReadItsRecorder checks that a unit's Stats is its
// recorder's ledger read from the unit's own baseline: after
// SetTelemetry(nil, src) the unit counts on a fresh recorder and keeps
// what it counted before, and ResetStats on one of two units sharing a
// recorder changes neither the shared ledger nor the other unit's Stats.
func TestUnitStatsReadItsRecorder(t *testing.T) {
	rows := []dbc.Row{dbc.ConstRow(64, 1), dbc.ConstRow(64, 0), dbc.ConstRow(64, 1)}
	xor := func(u *Unit) {
		t.Helper()
		if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
			t.Fatal(err)
		}
	}

	u := unitFor(t, params.TRD7, 64)
	xor(u)
	before, old := u.Stats(), u.Recorder()
	if before.Cycles() == 0 {
		t.Fatal("a fresh unit counted nothing")
	}
	u.SetTelemetry(nil, "u")
	if u.Recorder() == nil || u.Recorder() == old {
		t.Fatal("SetTelemetry(nil) must install a fresh recorder")
	}
	xor(u)
	fresh := u.Recorder().Stats()
	if fresh.Cycles() == 0 {
		t.Fatal("the unit stopped counting after SetTelemetry(nil)")
	}
	want := before
	want.Add(fresh)
	if got := u.Stats(); got != want {
		t.Errorf("Stats after SetTelemetry(nil) = %v, want %v", got, want)
	}

	shared := telemetry.NewRecorder(testConfig(params.TRD7, 64))
	a, b := unitFor(t, params.TRD7, 64), unitFor(t, params.TRD7, 64)
	a.SetTelemetry(shared, "a")
	b.SetTelemetry(shared, "b")
	xor(a)
	xor(b)
	ledger, aStats := shared.Stats(), a.Stats()
	b.ResetStats()
	if got := shared.Stats(); got != ledger {
		t.Errorf("ResetStats changed the shared ledger: %v, was %v", got, ledger)
	}
	if got := a.Stats(); got != aStats {
		t.Errorf("b.ResetStats changed a's Stats: %v, was %v", got, aStats)
	}
	if got := b.Stats(); got != (trace.Stats{}) {
		t.Errorf("b's Stats after ResetStats = %v, want zero", got)
	}
	xor(b)
	if got := a.Stats(); got != shared.Stats() {
		t.Errorf("a's Stats %v, want the whole shared ledger %v", got, shared.Stats())
	}
	grown := shared.Stats()
	grown.Add(ledger.Scale(-1))
	if got := b.Stats(); got != grown {
		t.Errorf("b's Stats %v, want the ledger's growth since its reset %v", got, grown)
	}
}

func TestPackUnpackLanes(t *testing.T) {
	vals := []uint64{0, 255, 170, 85, 1, 128}
	row, err := PackLanes(vals, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := UnpackLanes(row, 8)
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("lane %d = %d, want %d", i, got[i], v)
		}
	}
}

func TestPackLanesErrors(t *testing.T) {
	if _, err := PackLanes([]uint64{256}, 8, 64); err == nil {
		t.Error("oversized value accepted")
	}
	if _, err := PackLanes(nil, 7, 64); err == nil {
		t.Error("non-divisor lane accepted")
	}
	if _, err := PackLanes(make([]uint64, 9), 8, 64); err == nil {
		t.Error("too many values accepted")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	check := func(vals [8]uint8) bool {
		u64 := make([]uint64, 8)
		for i, v := range vals {
			u64[i] = uint64(v)
		}
		row, err := PackLanes(u64, 8, 64)
		if err != nil {
			return false
		}
		got := UnpackLanes(row, 8)
		for i := range u64 {
			if got[i] != u64[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLaneShiftLeft(t *testing.T) {
	row := MustPackLanes([]uint64{0x81, 0x40}, 8, 16)
	shifted := dbc.NewRow(16)
	laneShiftLeftInto(shifted, row, 8)
	got := UnpackLanes(shifted, 8)
	if got[0] != 0x02 { // MSB of 0x81 discarded, rest doubled
		t.Errorf("lane 0 = %#x, want 0x02", got[0])
	}
	if got[1] != 0x80 {
		t.Errorf("lane 1 = %#x, want 0x80", got[1])
	}
}

// --- Bulk-bitwise -----------------------------------------------------

func refBulk(op dbc.Op, ops []dbc.Row, w int) uint8 {
	ones := 0
	for _, r := range ops {
		ones += int(r.Get(w))
	}
	k := len(ops)
	switch op {
	case dbc.OpOR:
		return b2u(ones >= 1)
	case dbc.OpNOR, dbc.OpNOT:
		return b2u(ones == 0)
	case dbc.OpAND:
		return b2u(ones == k)
	case dbc.OpNAND:
		return b2u(ones < k)
	case dbc.OpXOR:
		return uint8(ones & 1)
	case dbc.OpXNOR:
		return uint8(1 - ones&1)
	}
	panic("bad op")
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func TestBulkBitwiseAllOpsAllCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []dbc.Op{dbc.OpOR, dbc.OpNOR, dbc.OpAND, dbc.OpNAND, dbc.OpXOR, dbc.OpXNOR}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, op := range ops {
			for k := 1; k <= int(trd); k++ {
				u := unitFor(t, trd, 32)
				operands := make([]dbc.Row, k)
				for i := range operands {
					operands[i] = randBits(32, rng)
				}
				got, err := u.BulkBitwise(op, operands)
				if err != nil {
					t.Fatalf("%v %v k=%d: %v", trd, op, k, err)
				}
				for w := 0; w < got.Len(); w++ {
					if want := refBulk(op, operands, w); got.Get(w) != want {
						t.Fatalf("%v %v k=%d wire %d = %d, want %d", trd, op, k, w, got.Get(w), want)
					}
				}
			}
		}
	}
}

func TestBulkBitwiseNOT(t *testing.T) {
	u := unitFor(t, params.TRD7, 16)
	rng := rand.New(rand.NewSource(6))
	in := randBits(16, rng)
	got, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{in})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < got.Len(); w++ {
		if got.Get(w) != 1-in.Get(w) {
			t.Fatalf("NOT wire %d = %d", w, got.Get(w))
		}
	}
	if _, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{in, in}); err == nil {
		t.Error("NOT with two operands accepted")
	}
}

func TestBulkBitwiseErrors(t *testing.T) {
	u := unitFor(t, params.TRD3, 16)
	rows := make([]dbc.Row, 4)
	for i := range rows {
		rows[i] = dbc.NewRow(16)
	}
	if _, err := u.BulkBitwise(dbc.OpOR, rows); err == nil {
		t.Error("4 operands on TRD=3 accepted")
	}
	if _, err := u.BulkBitwise(dbc.OpOR, nil); err == nil {
		t.Error("0 operands accepted")
	}
	if _, err := u.BulkBitwise(dbc.OpOR, []dbc.Row{dbc.NewRow(3)}); err == nil {
		t.Error("wrong-width operand accepted")
	}
}

func TestBulkBitwiseCycleCost(t *testing.T) {
	// Placement is 2 cycles per operand, plus one TR and one write-back.
	u := unitFor(t, params.TRD7, 16)
	rng := rand.New(rand.NewSource(7))
	ops := []dbc.Row{randBits(16, rng), randBits(16, rng), randBits(16, rng)}
	if _, err := u.BulkBitwise(dbc.OpXOR, ops); err != nil {
		t.Fatal(err)
	}
	if got := u.Stats().Cycles(); got != 2*3+1+1 {
		t.Errorf("3-operand bulk op = %d cycles, want 8", got)
	}
}

func randBits(width int, rng *rand.Rand) dbc.Row {
	r := dbc.NewRow(width)
	for i := 0; i < width; i++ {
		r.Set(i, uint8(rng.Intn(2)))
	}
	return r
}

// --- Addition ----------------------------------------------------------

func TestAddMultiExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		maxK := trd.MaxAddOperands()
		for k := 2; k <= maxK; k++ {
			for _, bs := range []int{8, 16} {
				u := unitFor(t, trd, 64)
				lanes := 64 / bs
				vals := make([][]uint64, k)
				operands := make([]dbc.Row, k)
				for i := range operands {
					vals[i] = make([]uint64, lanes)
					for l := range vals[i] {
						vals[i][l] = rng.Uint64() & ((1 << uint(bs)) - 1)
					}
					operands[i] = MustPackLanes(vals[i], bs, 64)
				}
				sum, err := u.AddMulti(operands, bs)
				if err != nil {
					t.Fatalf("%v k=%d bs=%d: %v", trd, k, bs, err)
				}
				got := UnpackLanes(sum, bs)
				for l := 0; l < lanes; l++ {
					var want uint64
					for i := 0; i < k; i++ {
						want += vals[i][l]
					}
					want &= (1 << uint(bs)) - 1
					if got[l] != want {
						t.Fatalf("%v k=%d bs=%d lane %d = %d, want %d", trd, k, bs, l, got[l], want)
					}
				}
			}
		}
	}
}

func TestAddMultiProperty(t *testing.T) {
	// testing/quick over the core invariant: five-operand 8-bit lane
	// addition is exact mod 256.
	u := unitFor(t, params.TRD7, 64)
	check := func(a, b, c, d, e [8]uint8) bool {
		operands := make([]dbc.Row, 5)
		all := [][8]uint8{a, b, c, d, e}
		for i, vs := range all {
			u64 := make([]uint64, 8)
			for l, v := range vs {
				u64[l] = uint64(v)
			}
			operands[i] = MustPackLanes(u64, 8, 64)
		}
		sum, err := u.AddMulti(operands, 8)
		if err != nil {
			return false
		}
		got := UnpackLanes(sum, 8)
		for l := 0; l < 8; l++ {
			want := (uint64(a[l]) + uint64(b[l]) + uint64(c[l]) + uint64(d[l]) + uint64(e[l])) & 0xff
			if got[l] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAddMultiCycleAnchors(t *testing.T) {
	// §V-B: 8-bit add with TRD=7 = 10 placement + 16 compute = 26
	// cycles; Table III: TRD=3 two-operand add = 19 cycles.
	u := unitFor(t, params.TRD7, 8)
	ops := [][]uint64{{200}, {50}, {3}, {1}, {1}}
	rows := make([]dbc.Row, 5)
	for i, v := range ops {
		rows[i] = MustPackLanes(v, 8, 8)
	}
	if _, err := u.AddMulti(rows, 8); err != nil {
		t.Fatal(err)
	}
	if got := u.Stats().Cycles(); got != 26 {
		t.Errorf("TRD=7 5-op 8-bit add = %d cycles, want 26 (paper anchor)", got)
	}

	u3 := unitFor(t, params.TRD3, 8)
	rows3 := []dbc.Row{MustPackLanes([]uint64{200}, 8, 8), MustPackLanes([]uint64{50}, 8, 8)}
	if _, err := u3.AddMulti(rows3, 8); err != nil {
		t.Fatal(err)
	}
	if got := u3.Stats().Cycles(); got != 19 {
		t.Errorf("TRD=3 2-op 8-bit add = %d cycles, want 19 (paper anchor)", got)
	}
}

func TestAddMultiEnergyAnchors(t *testing.T) {
	// Table III: 8-bit adds at 22.14 pJ (TRD=7) and 10.15 pJ (TRD=3);
	// calibration must land within 5%.
	u := unitFor(t, params.TRD7, 8)
	rows := make([]dbc.Row, 5)
	for i := range rows {
		rows[i] = MustPackLanes([]uint64{uint64(i + 1)}, 8, 8)
	}
	if _, err := u.AddMulti(rows, 8); err != nil {
		t.Fatal(err)
	}
	if got, want := u.Cost().EnergyPJ, 22.14; got < want*0.95 || got > want*1.05 {
		t.Errorf("TRD=7 add energy = %.2f pJ, want ≈%.2f", got, want)
	}

	u3 := unitFor(t, params.TRD3, 8)
	rows3 := []dbc.Row{MustPackLanes([]uint64{7}, 8, 8), MustPackLanes([]uint64{9}, 8, 8)}
	if _, err := u3.AddMulti(rows3, 8); err != nil {
		t.Fatal(err)
	}
	if got, want := u3.Cost().EnergyPJ, 10.15; got < want*0.95 || got > want*1.05 {
		t.Errorf("TRD=3 add energy = %.2f pJ, want ≈%.2f", got, want)
	}
}

func TestAddMultiResultStoredAtPort(t *testing.T) {
	// The sum must physically remain in the DBC: the row under the left
	// port equals the returned row.
	u := unitFor(t, params.TRD7, 32)
	rows := []dbc.Row{
		MustPackLanes([]uint64{11, 22, 33, 44}, 8, 32),
		MustPackLanes([]uint64{55, 66, 77, 88}, 8, 32),
		MustPackLanes([]uint64{99, 1, 2, 3}, 8, 32),
	}
	sum, err := u.AddMulti(rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	stored := u.D.PeekWindow(0)
	if !stored.Equal(sum) {
		t.Fatalf("stored row %v, want %v", stored, sum)
	}
}

func TestAddMultiErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 32)
	row := dbc.NewRow(32)
	if _, err := u.AddMulti([]dbc.Row{row}, 8); err == nil {
		t.Error("1 operand accepted")
	}
	six := make([]dbc.Row, 6)
	for i := range six {
		six[i] = dbc.NewRow(32)
	}
	if _, err := u.AddMulti(six, 8); err == nil {
		t.Error("6 operands accepted for TRD=7")
	}
	if _, err := u.AddMulti([]dbc.Row{row, row}, 7); err == nil {
		t.Error("blocksize 7 accepted")
	}
	if _, err := u.AddMulti([]dbc.Row{row, row}, 64); err == nil {
		t.Error("blocksize beyond track width accepted")
	}
	if _, err := u.AddMulti([]dbc.Row{row, dbc.NewRow(8)}, 8); err == nil {
		t.Error("mismatched operand width accepted")
	}
}

// TestAdd2: a two-operand add wraps each lane modulo 2^blocksize.
func TestAdd2(t *testing.T) {
	u := unitFor(t, params.TRD7, 16)
	a := MustPackLanes([]uint64{250, 3}, 8, 16)
	b := MustPackLanes([]uint64{10, 4}, 8, 16)
	sum, err := u.AddMulti([]dbc.Row{a, b}, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := UnpackLanes(sum, 8)
	if got[0] != 4 || got[1] != 7 { // 260 mod 256 = 4
		t.Errorf("a+b = %v, want [4 7]", got)
	}
}

// --- Reduction ---------------------------------------------------------

func TestReduceInvariant(t *testing.T) {
	// Carry-save invariant: S+C+C' preserves the lane-wise sum mod 2^b.
	rng := rand.New(rand.NewSource(9))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for k := 2; k <= int(trd); k++ {
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
			red, err := u.Reduce(operands, 8)
			if err != nil {
				t.Fatalf("%v k=%d: %v", trd, k, err)
			}
			outRows := red.Rows()
			if trd == params.TRD3 && len(outRows) != 2 {
				t.Fatalf("TRD=3 reduce returned %d rows, want 2", len(outRows))
			}
			s := UnpackLanes(red.S, 8)
			c := UnpackLanes(red.C, 8)
			cp := make([]uint64, 8)
			if !red.Cp.IsEmpty() {
				cp = UnpackLanes(red.Cp, 8)
			}
			for l := 0; l < 8; l++ {
				var want uint64
				for i := range vals {
					want += vals[i][l]
				}
				got := (s[l] + c[l] + cp[l]) & 0xff
				if got != want&0xff {
					t.Fatalf("%v k=%d lane %d: S+C+C'=%d, want %d", trd, k, l, got, want&0xff)
				}
			}
		}
	}
}

func TestReduceCycleAnchor(t *testing.T) {
	// §IV-A: a 7→3 reduction is O(1): 4 cycles beyond operand
	// placement, independent of lane width.
	u := unitFor(t, params.TRD7, 64)
	rng := rand.New(rand.NewSource(10))
	operands := make([]dbc.Row, 7)
	for i := range operands {
		operands[i] = randBits(64, rng)
	}
	if _, err := u.Reduce(operands, 8); err != nil {
		t.Fatal(err)
	}
	placement := 2*7 - 1 // full window: final shift elided
	if got := u.Stats().Cycles(); got != placement+4 {
		t.Errorf("7→3 reduce = %d cycles, want %d (placement) + 4", got, placement)
	}
}

func TestReduceWindowStateAfter(t *testing.T) {
	// After reducePlaced the window holds C', C, S at positions 0..2.
	u := unitFor(t, params.TRD7, 32)
	rng := rand.New(rand.NewSource(12))
	operands := make([]dbc.Row, 7)
	for i := range operands {
		operands[i] = randBits(32, rng)
	}
	red, err := u.Reduce(operands, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.D.PeekWindow(0); !got.Equal(red.Cp) {
		t.Fatalf("window 0 = %v, want C'=%v", got, red.Cp)
	}
	if got := u.D.PeekWindow(1); !got.Equal(red.C) {
		t.Fatalf("window 1 = %v, want C=%v", got, red.C)
	}
	if got := u.D.PeekWindow(2); !got.Equal(red.S) {
		t.Fatalf("window 2 = %v, want S=%v", got, red.S)
	}
}
