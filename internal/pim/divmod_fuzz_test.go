package pim

import (
	"testing"

	"repro/internal/params"
)

// FuzzDivMod drives the restoring divider with arbitrary operands at
// every blocksize from 8 to 64 and at TRD 3, 5 and 7, against Go's
// integer division with the RISC-V convention: x/0 is all ones with
// remainder x. A 128-wire row holds 128/bs lanes, which alternate
// between the (a0, d0) and (a1, d1) operand pairs, truncated to the
// lane width.
func FuzzDivMod(f *testing.F) {
	f.Add(uint64(200), uint64(7), uint64(99), uint64(0), uint8(0), uint8(2))
	f.Add(uint64(0x80), uint64(0xff), uint64(0x7f), uint64(0x80), uint8(0), uint8(0))
	f.Add(uint64(1)<<63, ^uint64(0), uint64(12345), uint64(0), uint8(3), uint8(1))
	f.Add(^uint64(0), uint64(1), ^uint64(0), ^uint64(0), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, a0, d0, a1, d1 uint64, bsSel, trdSel uint8) {
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
				t.Fatalf("%v bs=%d lane %d: %d /%% %d = (%d, %d), want (%d, %d)", trd, bs, l, a[l], d[l], q[l], r[l], wantQ, wantR)
			}
		}
	})
}
