package pim

import (
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
)

// TestFMADifferential checks a·b+c against native arithmetic across
// TRDs and product-lane widths, with full-lane addends (the modular
// wrap path included).
func TestFMADifferential(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, bw := range []int{4, 8, 16} {
			laneW := 2 * bw
			width := 4 * laneW
			u := unitFor(t, trd, width)
			rng := rand.New(rand.NewSource(int64(trd)*100 + int64(bw)))
			lanes := width / laneW
			bwMask := uint64(1)<<uint(bw) - 1
			laneMask := uint64(1)<<uint(laneW) - 1
			for iter := 0; iter < 8; iter++ {
				a := make([]uint64, lanes)
				b := make([]uint64, lanes)
				c := make([]uint64, lanes)
				for l := range a {
					a[l] = rng.Uint64() & bwMask
					b[l] = rng.Uint64() & bwMask
					c[l] = rng.Uint64() & laneMask // full-lane addend
				}
				out, err := u.FMA(MustPackLanes(a, laneW, width), MustPackLanes(b, laneW, width), MustPackLanes(c, laneW, width), bw)
				if err != nil {
					t.Fatal(err)
				}
				got := UnpackLanes(out, laneW)
				for l := range a {
					want := (a[l]*b[l] + c[l]) & laneMask
					if got[l] != want {
						t.Fatalf("trd=%v bw=%d lane %d: %d*%d+%d = %d, want %d",
							trd, bw, l, a[l], b[l], c[l], got[l], want)
					}
				}
			}
		}
	}
}

// TestFMAMatchesMultiplyPlusAdd confirms the fused path computes the
// same result as the two-step sequence while reusing the reduction: the
// fused op must not charge more TR steps than multiply-then-add.
func TestFMAMatchesMultiplyPlusAdd(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	a := MustPackLanes([]uint64{13, 250, 7, 99}, 16, 64)
	b := MustPackLanes([]uint64{77, 201, 255, 3}, 16, 64)
	c := MustPackLanes([]uint64{60000, 1, 40000, 12345}, 16, 64)

	u.ResetStats()
	fused, err := u.FMA(a, b, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	fusedTRs := u.Stats().TRSteps

	u.ResetStats()
	prod, err := u.Multiply(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := u.AddMulti([]dbc.Row{prod, c}, 16)
	if err != nil {
		t.Fatal(err)
	}
	twoStepTRs := u.Stats().TRSteps

	for i := range fused.Words {
		if fused.Words[i] != sum.Words[i] {
			t.Fatalf("fused result differs from multiply+add at word %d", i)
		}
	}
	if fusedTRs > twoStepTRs {
		t.Fatalf("fused FMA charged %d TR steps, more than multiply+add's %d", fusedTRs, twoStepTRs)
	}
}

// TestFMAErrors covers operand validation, including the bw-bit limit
// on the product inputs (not the addend).
func TestFMAErrors(t *testing.T) {
	u := unitFor(t, params.TRD7, 64)
	big := MustPackLanes([]uint64{300}, 16, 64) // exceeds 8 bits
	ok := MustPackLanes([]uint64{5}, 16, 64)
	if _, err := u.FMA(big, ok, ok, 8); err == nil {
		t.Fatal("oversized multiplicand accepted")
	}
	if _, err := u.FMA(ok, big, ok, 8); err == nil {
		t.Fatal("oversized multiplier accepted")
	}
	if _, err := u.FMA(ok, ok, big, 8); err != nil {
		t.Fatalf("full-lane addend rejected: %v", err)
	}
	if _, err := u.FMA(ok, ok, ok, 3); err == nil {
		t.Fatal("invalid product lane accepted")
	}
}
