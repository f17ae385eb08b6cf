package pim

import (
	"testing"

	"repro/internal/params"
)

// FuzzMultiplyFMA holds Multiply to Go's product and FMA to a·b+c
// modulo 2^(2·bw), at zero faults, for bw 4, 8, 16 and 32 at TRD 3, 5
// and 7. Every pair but bw 4 at TRD 7 sums its partial products through
// carry-save rounds first (from one round up to thirty-one), so the
// rounds are checked at every count they take. A 128-wire row holds
// 64/bw product lanes, which alternate between the (a0, b0, c0) and
// (a1, b1, c1) operands, a and b truncated to bw bits and c to the
// 2·bw-bit lane.
func FuzzMultiplyFMA(f *testing.F) {
	f.Add(uint64(173), uint64(89), uint64(5), uint64(255), uint64(255), uint64(1<<16-1), uint8(1), uint8(0))
	f.Add(uint64(15), uint64(15), uint64(255), uint64(7), uint64(9), uint64(0), uint8(0), uint8(2))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(1), uint64(0), uint64(1), uint8(3), uint8(1))
	f.Add(uint64(0xbeef), uint64(0xcafe), uint64(0xdeadbeef), uint64(3), uint64(1<<15), uint64(1<<31), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, a0, b0, c0, a1, b1, c1 uint64, bwSel, trdSel uint8) {
		const width = 128
		bw := 4 << (bwSel % 4)
		laneW := 2 * bw
		trd := []params.TRD{params.TRD3, params.TRD5, params.TRD7}[trdSel%3]
		opMask := uint64(1)<<uint(bw) - 1
		laneMask := ^uint64(0) >> uint(64-laneW)
		lanes := width / laneW
		a, b, c := make([]uint64, lanes), make([]uint64, lanes), make([]uint64, lanes)
		for l := range a {
			a[l], b[l], c[l] = a0&opMask, b0&opMask, c0&laneMask
			if l%2 == 1 {
				a[l], b[l], c[l] = a1&opMask, b1&opMask, c1&laneMask
			}
		}
		u := unitFor(t, trd, width)
		prod, err := u.MultiplyValues(a, b, bw)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := u.FMA(MustPackLanes(a, laneW, width), MustPackLanes(b, laneW, width), MustPackLanes(c, laneW, width), bw)
		if err != nil {
			t.Fatal(err)
		}
		fma := UnpackLanes(sum, laneW)
		for l := range a {
			if want := a[l] * b[l]; prod[l] != want {
				t.Fatalf("%v bw=%d lane %d: %d·%d = %d, want %d", trd, bw, l, a[l], b[l], prod[l], want)
			}
			if want := (a[l]*b[l] + c[l]) & laneMask; fma[l] != want {
				t.Fatalf("%v bw=%d lane %d: %d·%d+%d = %d, want %d", trd, bw, l, a[l], b[l], c[l], fma[l], want)
			}
		}
	})
}
