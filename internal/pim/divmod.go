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
// steps, the TR and the write; d's placement is not charged, where a
// BulkBitwise NOT (pimc's not, and the one a lowered sub issues) pays a
// write and a shift for it. The +1
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
