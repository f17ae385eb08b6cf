package pim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/params"
)

// TestLogicalShiftDifferential checks the variable shift against Go's
// native shifts across widths and every amount 0..blocksize, in both
// directions — including the full-width shift that clears all lanes.
func TestLogicalShiftDifferential(t *testing.T) {
	for _, bs := range []int{8, 16, 32, 64} {
		width := 4 * bs
		u := unitFor(t, params.TRD7, width)
		rng := rand.New(rand.NewSource(int64(bs)))
		lanes := width / bs
		mask := uint64(1)<<uint(bs) - 1
		if bs == 64 {
			mask = ^uint64(0)
		}
		vals := make([]uint64, lanes)
		for l := range vals {
			vals[l] = rng.Uint64() & mask
		}
		for amount := 0; amount <= bs; amount++ {
			for _, left := range []bool{true, false} {
				out, err := u.LogicalShift(MustPackLanes(vals, bs, width), amount, bs, left)
				if err != nil {
					t.Fatal(err)
				}
				got := UnpackLanes(out, bs)
				for l, v := range vals {
					var want uint64
					if amount < 64 {
						if left {
							want = v << uint(amount) & mask
						} else {
							want = v >> uint(amount)
						}
					}
					if got[l] != want {
						t.Fatalf("bs=%d amount=%d left=%v lane %d: got %#x, want %#x",
							bs, amount, left, l, got[l], want)
					}
				}
			}
		}
	}
}

// TestLogicalShiftWideLanes covers lanes wider than a word, where the
// shift decomposes into whole-word moves plus a sub-word carry chain.
func TestLogicalShiftWideLanes(t *testing.T) {
	u := unitFor(t, params.TRD7, 256)
	in := MustPackLanes([]uint64{0xDEADBEEFCAFE, 0x12345678}, 128, 256)
	for _, amount := range []int{0, 1, 63, 64, 65, 100, 127, 128} {
		outL, err := u.LogicalShift(in, amount, 128, true)
		if err != nil {
			t.Fatal(err)
		}
		outR, err := u.LogicalShift(outL, amount, 128, false)
		if err != nil {
			t.Fatal(err)
		}
		// Left then right by the same amount preserves the bits that
		// did not fall off the top.
		for l := 0; l < 2; l++ {
			for j := 0; j < 128-amount; j++ {
				if outR.Get(l*128+j) != in.Get(l*128+j) {
					t.Fatalf("amount=%d lane %d bit %d: round-trip mismatch", amount, l, j)
				}
			}
			for j := 128 - amount; j < 128; j++ {
				if j >= 0 && outR.Get(l*128+j) != 0 {
					t.Fatalf("amount=%d lane %d bit %d: expected zero fill", amount, l, j)
				}
			}
		}
	}
}

// TestLogicalShiftCostModel pins the XDWM pricing: a k-bit shift is k
// racetrack shift steps plus one port read and one write — independent
// of the lane count, and with no row-buffer data moves.
func TestLogicalShiftCostModel(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	in := MustPackLanes([]uint64{0xAB, 0xCD}, 8, 64)
	u.ResetStats()
	if _, err := u.LogicalShift(in, 5, 8, true); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.ShiftSteps != 5 || st.ReadSteps != 1 || st.WriteSteps != 1 || st.CopySteps != 0 {
		t.Fatalf("shift cost: %+v, want 5 shifts + 1 read + 1 write", st)
	}
}

// TestLogicalShiftErrors covers amount and width validation.
func TestLogicalShiftErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	in := MustPackLanes([]uint64{1}, 8, 64)
	if _, err := u.LogicalShift(in, -1, 8, true); !errors.Is(err, ErrShiftAmount) {
		t.Fatalf("negative amount: got %v", err)
	}
	if _, err := u.LogicalShift(in, 9, 8, true); !errors.Is(err, ErrShiftAmount) {
		t.Fatalf("amount > blocksize: got %v", err)
	}
	if _, err := u.LogicalShift(in, 1, 5, true); err == nil {
		t.Fatal("invalid blocksize accepted")
	}
	short := MustPackLanes([]uint64{1}, 8, 8)
	if _, err := u.LogicalShift(short, 1, 8, true); err == nil {
		t.Fatal("mismatched width accepted")
	}
}
