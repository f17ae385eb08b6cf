package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// DivMod divides lane-wise, unsigned: each blocksize-bit lane of a is
// divided by the matching lane of d, returning the quotient and
// remainder rows. The algorithm is restoring shift-and-subtract on the
// existing Fig. 6 carry chain (the PIRM arithmetic menu realized on the
// CORUSCANT substrate): per quotient bit the remainder doubles by one
// lateral racetrack shift, the trial subtraction rem − d runs as
// rem + ¬d + 1 through the same per-bit TR/scatter chain AddMulti uses,
// and a predicated write keeps either the difference or the untouched
// remainder — the restoring step costs no extra add.
//
// The loop invariant rem < d makes the b-bit window exact: the doubled
// remainder is at most 2d−1, so a single overflow bit (the remainder
// MSB captured before the shift) together with the in-window compare
// decides the subtraction. Lanes dividing by zero fall out of the same
// dataflow with the RISC-V convention: quotient all-ones, remainder a.
func (u *Unit) DivMod(a, d dbc.Row, blocksize int) (dbc.Row, dbc.Row, error) {
	u.rec.Begin(u.src, "div")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width || d.N != width {
		return dbc.Row{}, dbc.Row{}, fmt.Errorf("pim: operand widths %d,%d, want %d", a.N, d.N, width)
	}
	u.enterOp()
	defer u.exitOp()

	b := blocksize
	lanes := width / b
	rem := u.scratchRow()
	diff := u.scratchRow()
	take := u.scratchRow()
	q := dbc.NewRow(width)

	// ¬d through the polymorphic NOT gate: one bulk pass, same charge as
	// the Sub complement. The +1 correction row is a preset constant
	// (bit 0 of every lane), maintained like the Fig. 7 padding.
	notd := u.scratchRow()
	for i, w := range d.Words {
		notd.Words[i] = ^w
	}
	notd.MaskTail()
	u.chargeStep(telemetry.OpTR, width)
	u.chargeStep(telemetry.OpWrite, width)
	one := u.scratchRow()
	for l := 0; l < lanes; l++ {
		one.Set(l*b, 1)
	}

	for j := b - 1; j >= 0; j-- {
		// Overflow bit: lanes whose remainder MSB is set before doubling
		// already exceed d after the shift, whatever the low bits say.
		for i := range take.Words {
			take.Words[i] = 0
		}
		for l := 0; l < lanes; l++ {
			if rem.Get(l*b+b-1) != 0 {
				setLane(take, l, b)
			}
		}
		// rem = rem<<1 | a_j: one lateral shift step on the racetrack.
		laneShiftLeftKInto(rem, rem, b, 1)
		for l := 0; l < lanes; l++ {
			if a.Get(l*b+j) != 0 {
				rem.Set(l*b, 1)
			}
		}
		u.chargeStep(telemetry.OpShift, width)
		// Trial subtraction on the carry chain.
		if err := u.subChainInto(diff, rem, notd, one, b); err != nil {
			return dbc.Row{}, dbc.Row{}, err
		}
		// Decide per lane and set the quotient bit.
		for l := 0; l < lanes; l++ {
			base := l * b
			if take.Get(base) == 0 && laneGE(rem, d, l, b) {
				setLane(take, l, b)
			}
			if take.Get(base) != 0 {
				q.Set(base+j, 1)
			}
		}
		// rem = take ? diff : rem — the predicated write driver keeps the
		// difference only in subtracting lanes (one copy step).
		for i := range rem.Words {
			rem.Words[i] = diff.Words[i]&take.Words[i] | rem.Words[i]&^take.Words[i]
		}
		rem.MaskTail()
		u.chargeStep(telemetry.OpCopy, width)
	}
	q.MaskTail()
	return q, copyRow(rem), nil
}

// subChainInto computes x − d into dst via the carry chain, with ¬d and
// the +1 correction already materialized: one three-operand window add
// for TRD ≥ 5, or two chained two-operand adds on the TRD=3 window.
func (u *Unit) subChainInto(dst, x, notd, one dbc.Row, blocksize int) error {
	if u.maxAddOperands() >= 3 {
		hasCp := u.cfg.TRD.HasSuperCarry()
		if err := u.placeWindow(append(u.scratchRowList(3), x, notd, one), 0, hasCp); err != nil {
			return err
		}
		return u.addPlacedInto(dst, blocksize, hasCp)
	}
	t := u.scratchRow()
	if err := u.placeWindow(append(u.scratchRowList(2), x, notd), 0, false); err != nil {
		return err
	}
	if err := u.addPlacedInto(t, blocksize, false); err != nil {
		return err
	}
	if err := u.placeWindow(append(u.scratchRowList(2), t, one), 0, false); err != nil {
		return err
	}
	return u.addPlacedInto(dst, blocksize, false)
}

// DivModSigned is DivMod on two's-complement lanes with truncated
// (round-toward-zero) semantics: the sign handling — conditional lane
// negation before and after the unsigned core — runs functionally with
// one complement pass (TR + write) and one predicated copy charged per
// negation, while the divide itself runs on the carry chain. Division
// by zero returns quotient all-ones (−1) and remainder a, and
// MinInt/−1 wraps to MinInt with remainder 0 (the Go/RISC-V overflow
// convention) — both fall out of the magnitude dataflow.
func (u *Unit) DivModSigned(a, d dbc.Row, blocksize int) (dbc.Row, dbc.Row, error) {
	u.rec.Begin(u.src, "sdiv")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width || d.N != width {
		return dbc.Row{}, dbc.Row{}, fmt.Errorf("pim: operand widths %d,%d, want %d", a.N, d.N, width)
	}
	u.enterOp()
	defer u.exitOp()

	b := blocksize
	lanes := width / b
	magA := u.scratchRow()
	magD := u.scratchRow()
	copy(magA.Words, a.Words)
	copy(magD.Words, d.Words)
	for l := 0; l < lanes; l++ {
		if a.Get(l*b+b-1) != 0 {
			laneNegate(magA, l, b)
		}
		if d.Get(l*b+b-1) != 0 {
			laneNegate(magD, l, b)
		}
	}
	u.chargeStep(telemetry.OpTR, width)
	u.chargeStep(telemetry.OpWrite, width)
	u.chargeStep(telemetry.OpCopy, width)

	q, r, err := u.DivMod(magA, magD, b)
	if err != nil {
		return dbc.Row{}, dbc.Row{}, err
	}

	for l := 0; l < lanes; l++ {
		base := l * b
		sa := a.Get(base+b-1) != 0
		sd := d.Get(base+b-1) != 0
		if laneIsZero(d, l, b) {
			// q is already all-ones in zero-divisor lanes; restore r = a.
			for j := 0; j < b; j++ {
				r.Set(base+j, a.Get(base+j))
			}
			continue
		}
		if sa != sd {
			laneNegate(q, l, b)
		}
		if sa {
			laneNegate(r, l, b)
		}
	}
	q.MaskTail()
	r.MaskTail()
	u.chargeStep(telemetry.OpTR, width)
	u.chargeStep(telemetry.OpWrite, width)
	u.chargeStep(telemetry.OpCopy, width)
	return q, r, nil
}

// DivModValues is the lane-value convenience wrapper for DivMod.
func (u *Unit) DivModValues(a, d []uint64, blocksize int) (q, r []uint64, err error) {
	if len(a) != len(d) {
		return nil, nil, fmt.Errorf("pim: operand counts %d and %d differ", len(a), len(d))
	}
	ra, err := PackLanes(a, blocksize, u.D.Width())
	if err != nil {
		return nil, nil, err
	}
	rd, err := PackLanes(d, blocksize, u.D.Width())
	if err != nil {
		return nil, nil, err
	}
	rq, rr, err := u.DivMod(ra, rd, blocksize)
	if err != nil {
		return nil, nil, err
	}
	return UnpackLanes(rq, blocksize)[:len(a)], UnpackLanes(rr, blocksize)[:len(a)], nil
}

// DivModSignedValues is the lane-value wrapper for DivModSigned, for
// lanes of at most 64 bits (values are two's-complement encoded into
// the lane width).
func (u *Unit) DivModSignedValues(a, d []int64, blocksize int) (q, r []int64, err error) {
	if len(a) != len(d) {
		return nil, nil, fmt.Errorf("pim: operand counts %d and %d differ", len(a), len(d))
	}
	if blocksize > 64 {
		return nil, nil, fmt.Errorf("pim: signed value wrapper limited to 64-bit lanes, got %d: %w", blocksize, ErrLaneOverflow)
	}
	mask := uint64(1)<<uint(blocksize) - 1
	if blocksize == 64 {
		mask = ^uint64(0)
	}
	enc := func(vals []int64) ([]uint64, error) {
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = uint64(v) & mask
		}
		return out, nil
	}
	ua, _ := enc(a)
	ud, _ := enc(d)
	ra, err := PackLanes(ua, blocksize, u.D.Width())
	if err != nil {
		return nil, nil, err
	}
	rd, err := PackLanes(ud, blocksize, u.D.Width())
	if err != nil {
		return nil, nil, err
	}
	rq, rr, err := u.DivModSigned(ra, rd, blocksize)
	if err != nil {
		return nil, nil, err
	}
	dec := func(row dbc.Row) []int64 {
		us := UnpackLanes(row, blocksize)[:len(a)]
		out := make([]int64, len(us))
		sign := uint64(1) << uint(blocksize-1)
		for i, v := range us {
			if blocksize < 64 && v&sign != 0 {
				v |= ^mask
			}
			out[i] = int64(v)
		}
		return out
	}
	return dec(rq), dec(rr), nil
}

// setLane fills lane l of row r with ones, word-at-a-time (the inverse
// of zeroLane).
func setLane(r dbc.Row, l, lane int) {
	base := l * lane
	switch {
	case 64%lane == 0:
		mask := (uint64(1)<<uint(lane) - 1) << uint(base%64)
		if lane == 64 {
			mask = ^uint64(0)
		}
		r.Words[base/64] |= mask
	case lane%64 == 0:
		for i := base / 64; i < (base+lane)/64; i++ {
			r.Words[i] = ^uint64(0)
		}
	default:
		for t := base; t < base+lane; t++ {
			r.Set(t, 1)
		}
	}
	r.MaskTail()
}

// laneGE reports whether lane l of x is ≥ lane l of y, comparing from
// the most significant bit down.
func laneGE(x, y dbc.Row, l, lane int) bool {
	base := l * lane
	for j := lane - 1; j >= 0; j-- {
		xb, yb := x.Get(base+j), y.Get(base+j)
		if xb != yb {
			return xb > yb
		}
	}
	return true
}

// laneIsZero reports whether lane l of r is all zeros.
func laneIsZero(r dbc.Row, l, lane int) bool {
	base := l * lane
	for j := 0; j < lane; j++ {
		if r.Get(base+j) != 0 {
			return false
		}
	}
	return true
}

// laneNegate two's-complement negates lane l of r in place: complement
// plus an in-lane ripple increment.
func laneNegate(r dbc.Row, l, lane int) {
	base := l * lane
	carry := uint8(1)
	for j := 0; j < lane; j++ {
		s := (1 - r.Get(base+j)) + carry
		r.Set(base+j, s&1)
		carry = s >> 1
	}
}
