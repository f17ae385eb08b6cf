package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
)

// Reduction is the output of a carry-save reduction step (§III-D3): three
// rows whose lane-wise sum equals the lane-wise sum of the inputs modulo
// 2^blocksize. For TRD=3 there is no super-carry and Cp is the empty row
// (a 3→2 reduction).
type Reduction struct {
	S  dbc.Row // level bit 0, at the original bit positions
	C  dbc.Row // level bit 1, already routed one bit position up
	Cp dbc.Row // level bit 2, already routed two bit positions up (empty for TRD=3)
}

// Rows returns the non-empty rows of the reduction.
func (r Reduction) Rows() []dbc.Row {
	if r.Cp.IsEmpty() {
		return []dbc.Row{r.S, r.C}
	}
	return []dbc.Row{r.S, r.C, r.Cp}
}

// Reduce performs one TRD→3 carry-save reduction over up to TRD operand
// rows: a single parallel transverse read of every nanowire senses all
// lanes' bit positions at once (no carry chain — the defining advantage
// over addition), and the level bits are written back as the S, C and C'
// rows. Carries crossing a lane boundary are masked.
//
// Cycle anchor (§IV-A): the reduction step itself is O(1) — one TR plus
// three write-backs (S through the left port, then C and C' by transverse
// writes that rotate the window) = 4 cycles for TRD≥5, 3 for TRD=3 —
// regardless of operand count or lane width. Operand placement, when the
// rows are not already in the window, costs 2k cycles as usual.
func (u *Unit) Reduce(operands []dbc.Row, blocksize int) (Reduction, error) {
	u.rec.Begin(u.src, "reduce")
	defer u.rec.End(u.src)
	k := len(operands)
	if k < 2 {
		return Reduction{}, fmt.Errorf("pim: reduce needs at least 2 operands, got %d", k)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return Reduction{}, fmt.Errorf("pim: reduce with %d operands exceeds TRD %d: %w", k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return Reduction{}, err
	}
	width := u.D.Width()
	for _, r := range operands {
		if r.N != width {
			return Reduction{}, fmt.Errorf("pim: operand width %d, want %d", r.N, width)
		}
	}
	u.enterOp()
	defer u.exitOp()
	if err := u.placeWindow(operands, placement{atRest: true}); err != nil {
		return Reduction{}, err
	}
	red := u.reducePlaced(blocksize)
	out := Reduction{S: red.S.Clone(), C: red.C.Clone()}
	if !red.Cp.IsEmpty() {
		out.Cp = red.Cp.Clone()
	}
	return out, nil
}

// reducePlaced is the one TRD→3 reduction dataflow: it reduces whatever
// occupies the window with one transverse read of every wire, whose
// level bits are S, C and C', and writes them back — S through the left
// port, then C and C' by transverse writes that rotate the window, so
// slots 0..2 hold C', C, S afterwards (slots 0..1 hold C, S at TRD 3,
// which has no C'). The returned rows are scratch rows: S in place, C
// routed one bit position up and C' two, with the carries past each
// blocksize lane masked — the multiplication forwarding path's lane
// shift.
func (u *Unit) reducePlaced(blocksize int) Reduction {
	lp := u.trAll()
	red := Reduction{S: u.scratchRow(), C: u.scratchRow()}
	copy(red.S.Words, lp.C0)
	red.S.MaskTail()
	laneShiftLeftKInto(red.C, dbc.Row{Words: lp.C1, N: lp.N}, blocksize, 1)
	if u.cfg.TRD.HasSuperCarry() {
		red.Cp = u.scratchRow()
		laneShiftLeftKInto(red.Cp, dbc.Row{Words: lp.C2, N: lp.N}, blocksize, 2)
	}
	u.D.WritePort(dbcLeft, red.S)
	u.D.TW(red.C)
	if !red.Cp.IsEmpty() {
		u.D.TW(red.Cp)
	}
	return red
}

// splice replaces the k rows a reduction consumed at the head of rows
// with its outputs, in place and in the window order reducePlaced
// leaves them (C', C, S from slot 0; C, S at TRD 3), and returns the
// shortened list. k is at least the output count.
func splice(rows []dbc.Row, k int, red Reduction) []dbc.Row {
	out := rows[:0]
	if !red.Cp.IsEmpty() {
		out = append(out, red.Cp)
	}
	out = append(out, red.C, red.S)
	return append(out, rows[k:]...)
}
