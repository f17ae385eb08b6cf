package pim

import (
	"testing"

	"repro/internal/params"
)

// FuzzDivMod drives the restoring divider with arbitrary operands,
// unsigned and signed, at every blocksize from 8 to 64 and at TRD 3, 5
// and 7, against Go's integer division with the RISC-V conventions:
// x/0 is all ones (−1 signed) with remainder x, and MinInt/−1 wraps to
// MinInt with remainder 0. A 128-wire row holds 128/bs lanes, which
// alternate between the (a0, d0) and (a1, d1) operand pairs, truncated
// to the lane width.
func FuzzDivMod(f *testing.F) {
	f.Add(uint64(200), uint64(7), uint64(99), uint64(0), uint8(0), uint8(2), false)
	f.Add(uint64(0x80), uint64(0xff), uint64(0x7f), uint64(0x80), uint8(0), uint8(0), true)
	f.Add(uint64(1)<<63, ^uint64(0), uint64(12345), uint64(0), uint8(3), uint8(1), true)
	f.Add(^uint64(0), uint64(1), ^uint64(0), ^uint64(0), uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, a0, d0, a1, d1 uint64, bsSel, trdSel uint8, signed bool) {
		const width = 128
		bs := 8 << (bsSel % 4)
		trd := []params.TRD{params.TRD3, params.TRD5, params.TRD7}[trdSel%3]
		mask := ^uint64(0) >> uint(64-bs)
		lanes := width / bs
		a, d := make([]uint64, lanes), make([]uint64, lanes)
		for l := range a {
			a[l], d[l] = a0&mask, d0&mask
			if l%2 == 1 {
				a[l], d[l] = a1&mask, d1&mask
			}
		}
		u := unitFor(t, trd, width)
		if !signed {
			q, r, err := u.DivModValues(a, d, bs)
			if err != nil {
				t.Fatal(err)
			}
			for l := range a {
				wantQ, wantR := mask, a[l]
				if d[l] != 0 {
					wantQ, wantR = a[l]/d[l], a[l]%d[l]
				}
				if q[l] != wantQ || r[l] != wantR {
					t.Fatalf("%v bs=%d lane %d: %d /%% %d = (%d, %d), want (%d, %d)", trd, bs, l, a[l], d[l], q[l], r[l], wantQ, wantR)
				}
			}
			return
		}
		// Sign-extend the lane values to int64.
		sext := func(v uint64) int64 { return int64(v<<uint(64-bs)) >> uint(64-bs) }
		sa, sd := make([]int64, lanes), make([]int64, lanes)
		for l := range a {
			sa[l], sd[l] = sext(a[l]), sext(d[l])
		}
		q, r, err := u.DivModSignedValues(sa, sd, bs)
		if err != nil {
			t.Fatal(err)
		}
		minInt := int64(-1) << uint(bs-1)
		for l := range sa {
			var wantQ, wantR int64
			switch {
			case sd[l] == 0:
				wantQ, wantR = -1, sa[l]
			case sa[l] == minInt && sd[l] == -1:
				wantQ, wantR = minInt, 0
			default:
				wantQ, wantR = sa[l]/sd[l], sa[l]%sd[l]
			}
			if q[l] != wantQ || r[l] != wantR {
				t.Fatalf("%v bs=%d lane %d: %d /%% %d = (%d, %d), want (%d, %d)", trd, bs, l, sa[l], sd[l], q[l], r[l], wantQ, wantR)
			}
		}
	})
}
