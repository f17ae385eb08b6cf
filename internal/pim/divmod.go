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
// Only the remainder changes from bit to bit, so on a window with a
// spare slot (TRD ≥ 5) the subtrahend stays resident: the first
// quotient bit places ¬d, +1 and rem, rem last so that it sits beside
// the S slot (or the C slot, entered through the right port), and each
// later bit rewrites only that slot (rewriteLast: two shifts and one
// write instead of a fresh three-row placement). The TRD=3 window has
// no slot to spare and places both chained adds every bit.
//
// The loop invariant rem < d makes the b-bit window exact: the doubled
// remainder is at most 2d−1, so a single overflow bit (the remainder
// MSB captured before the shift) together with the in-window compare
// decides the subtraction. The compare is the carry the chain senses
// past each lane's MSB, set exactly where the doubled remainder is ≥ d,
// so the quotient bit is the overflow bit ORed with that carry-out and
// an injected TR fault reaches the quotient as it reaches the
// difference. Lanes dividing by zero fall out of the same dataflow with
// the RISC-V convention: quotient all-ones, remainder a.
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

	notd, one, err := u.subtrahendRows(d, b)
	if err != nil {
		return dbc.Row{}, dbc.Row{}, err
	}
	resident := u.maxAddOperands() >= 3

	for j := b - 1; j >= 0; j-- {
		// Overflow bit: lanes whose remainder MSB is set before doubling
		// already exceed d after the shift, whatever the low bits say.
		// take holds it at the lane's MSB wire, where the chain's
		// carry-out lands too.
		for i := range take.Words {
			take.Words[i] = 0
		}
		for l := 0; l < lanes; l++ {
			if msb := l*b + b - 1; rem.Get(msb) != 0 {
				take.Set(msb, 1)
			}
		}
		// rem = rem<<1 | a_j: one lateral shift step on the racetrack.
		laneShiftLeftKInto(rem, rem, b, 1)
		for l := 0; l < lanes; l++ {
			if a.Get(l*b+j) != 0 {
				rem.Set(l*b, 1)
			}
		}
		u.D.Charge(telemetry.OpShift, width)
		// Trial subtraction on the carry chain, ORing its carry-out into
		// the overflow bits: take's MSB wires are the quotient bits.
		if resident && j < b-1 {
			if err = u.rewriteLast(rem); err == nil {
				u.addPlacedInto(diff, b, u.cfg.TRD.HasSuperCarry(), 1, take.Words)
			}
		} else {
			err = u.subChainInto(diff, rem, notd, one, b, take.Words)
		}
		if err != nil {
			return dbc.Row{}, dbc.Row{}, err
		}
		// Set the quotient bit and widen it to the lane's select mask.
		for l := 0; l < lanes; l++ {
			if take.Get(l*b+b-1) != 0 {
				setLane(take, l, b)
				q.Set(l*b+j, 1)
			}
		}
		// rem = take ? diff : rem: keep the difference only in
		// subtracting lanes.
		u.predicatedCopy(rem, diff, rem, take)
	}
	q.MaskTail()
	return q, copyRow(rem), nil
}

// subtrahendRows materializes the trial subtraction's ¬d and +1 rows on
// the scratch arena. ¬d is the NOT output of the polymorphic gate: d
// stands alone in the window, one whole-DBC TR senses it, and ¬d is
// written back through the left port. The pass is charged those two
// steps, the TR and the write; d's placement is not charged, where
// Sub's BulkBitwise NOT pays a write and a shift for it. The +1
// correction row is a preset constant (bit 0 of every lane), maintained
// like the Fig. 7 padding, so it costs nothing.
func (u *Unit) subtrahendRows(d dbc.Row, blocksize int) (notd, one dbc.Row, err error) {
	if err := u.pokeWindow([]dbc.Row{d}); err != nil {
		return dbc.Row{}, dbc.Row{}, err
	}
	notd = u.scratchRow()
	dbc.EvalPlanesInto(notd, dbc.OpNOT, u.trAll(), u.cfg.TRD)
	u.D.WritePort(dbcLeft, notd)
	one = u.scratchRow()
	for l := 0; l < u.D.Width()/blocksize; l++ {
		one.Set(l*blocksize, 1)
	}
	return notd, one, nil
}

// predicatedCopy sets dst to x in the lanes take selects and to y in
// the others: the predicated write driver, charged as one copy step.
// dst may alias y.
func (u *Unit) predicatedCopy(dst, x, y, take dbc.Row) {
	for i := range dst.Words {
		dst.Words[i] = x.Words[i]&take.Words[i] | y.Words[i]&^take.Words[i]
	}
	dst.MaskTail()
	u.D.Charge(telemetry.OpCopy, u.D.Width())
}

// subChainInto computes x − d into dst via the carry chain, with ¬d and
// the +1 correction already materialized: one three-operand window add
// for TRD ≥ 5, or two chained two-operand adds on the TRD=3 window.
// A non-nil cout receives each lane's carry-out as addPlacedInto senses
// it, ORed over both chained adds on the TRD=3 window: it is set exactly
// in the lanes where x ≥ d.
//
// On the TRD ≥ 5 window x is placed last, so it sits beside the S or C
// slot, where rewriteLast can replace it without moving ¬d and +1. The
// TRD=3 window's two placements enter at rest: the second would
// otherwise enter from wherever the first left the head, and the pair's
// cost would depend on the entry offset in a way one side's cost
// cannot state.
func (u *Unit) subChainInto(dst, x, notd, one dbc.Row, blocksize int, cout []uint64) error {
	if u.maxAddOperands() >= 3 {
		hasCp := u.cfg.TRD.HasSuperCarry()
		if err := u.placeWindow(append(u.scratchRowList(3), notd, one, x), placement{finalShift: hasCp}); err != nil {
			return err
		}
		u.addPlacedInto(dst, blocksize, hasCp, 1, cout)
		return nil
	}
	t := u.scratchRow()
	if err := u.placeWindow(append(u.scratchRowList(2), x, notd), placement{atRest: true}); err != nil {
		return err
	}
	u.addPlacedInto(t, blocksize, false, 1, cout)
	if err := u.placeWindow(append(u.scratchRowList(2), t, one), placement{atRest: true}); err != nil {
		return err
	}
	u.addPlacedInto(dst, blocksize, false, 1, cout)
	return nil
}

// rewriteLast replaces the row the last placeWindow put in last — slot
// 1 beside the S slot after a left entry, slot TRD−2 beside the C slot
// after a right one — with x, leaving the other operands where they
// are: one traced shift brings the slot under its entry port, one write
// replaces it, and one shift takes it back. The S and C slots the
// previous carry chain scattered into go back to the pad constant
// untraced, as placeWindow restores them: the Fig. 7 preset padding.
// Only a TRD ≥ 5 window has the spare slot this needs.
func (u *Unit) rewriteLast(x dbc.Row) error {
	side, step := dbcLeft, -1
	if u.rightEntry {
		side, step = dbcRight, 1
	}
	if err := u.D.Shift(step); err != nil {
		return err
	}
	u.D.WritePort(side, x)
	if err := u.D.Shift(-step); err != nil {
		return err
	}
	u.D.PokeWindowConst(0, 0)
	u.D.PokeWindowConst(int(u.cfg.TRD)-1, 0)
	return nil
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
	u.D.Charge(telemetry.OpTR, width)
	u.D.Charge(telemetry.OpWrite, width)
	u.D.Charge(telemetry.OpCopy, width)

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
	u.D.Charge(telemetry.OpTR, width)
	u.D.Charge(telemetry.OpWrite, width)
	u.D.Charge(telemetry.OpCopy, width)
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
