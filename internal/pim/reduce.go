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
	if err := u.placeWindow(operands, 0, false); err != nil {
		return Reduction{}, err
	}
	return u.reducePlaced(blocksize)
}

// reducePlaced reduces whatever occupies the window. After it returns,
// the window holds the result rows: S under the left port region after
// the transverse writes rotate it inward (positions 0..2 hold C', C, S
// for TRD≥5; positions 0..1 hold C, S for TRD=3).
func (u *Unit) reducePlaced(blocksize int) (Reduction, error) {
	lp := u.trAll()
	red := reductionOfPlanes(lp, blocksize, u.cfg.TRD.HasSuperCarry())
	// Write-back: S through the left port, then rotate C (and C') in by
	// transverse writes so all outputs occupy window rows (§IV-B notes TW
	// also accelerates padding and multi-step operations).
	u.D.WritePort(dbcLeft, red.S)
	u.D.TW(red.C)
	if !red.Cp.IsEmpty() {
		u.D.TW(red.Cp)
	}
	return red, nil
}

// reductionOfPlanes converts bit-sliced TR level planes into the S/C/C'
// rows word-parallel: S is the level's bit 0 in place, C the level's bit
// 1 routed one position up, C' bit 2 routed two positions up, with
// carries masked at lane boundaries — exactly the lane shift used by the
// multiplication forwarding path.
func reductionOfPlanes(lp dbc.LevelPlanes, blocksize int, hasCp bool) Reduction {
	s := dbc.Row{Words: append([]uint64(nil), lp.C0...), N: lp.N}
	s.MaskTail()
	c := dbc.Row{Words: append([]uint64(nil), lp.C1...), N: lp.N}
	c.MaskTail()
	red := Reduction{S: s, C: laneShiftLeft(c, blocksize)}
	if hasCp {
		cp := dbc.Row{Words: append([]uint64(nil), lp.C2...), N: lp.N}
		cp.MaskTail()
		red.Cp = laneShiftLeftK(cp, blocksize, 2)
	}
	return red
}

// reductionOfLevels converts per-wire TR levels into the S/C/C' rows,
// masking carries at lane boundaries. It tolerates -1 (masked) entries
// and is the scalar reference for reductionOfPlanes.
func reductionOfLevels(levels []int, blocksize int, hasCp bool) Reduction {
	width := len(levels)
	red := Reduction{S: dbc.NewRow(width), C: dbc.NewRow(width)}
	if hasCp {
		red.Cp = dbc.NewRow(width)
	}
	for t, l := range levels {
		if l < 0 {
			continue
		}
		j := t % blocksize
		red.S.Set(t, uint8(l&1))
		if j+1 < blocksize {
			red.C.Set(t+1, uint8(l>>1&1))
		}
		if hasCp && j+2 < blocksize {
			red.Cp.Set(t+2, uint8(l>>2&1))
		}
	}
	return red
}

// reduceRowsFunctional is the dataflow of Reduce without touching the
// DBC: used by Multiply, which charges its cost explicitly, and by tests
// that check equivalence with the DBC-executed path. The operand bits
// are counted with the same word-parallel carry-save pass the plane
// engine uses for transverse reads.
func reduceRowsFunctional(rows []dbc.Row, blocksize int, hasCp bool) Reduction {
	words := len(rows[0].Words)
	c0 := make([]uint64, words)
	c1 := make([]uint64, words)
	c2 := make([]uint64, words)
	countRowsInto(c0, c1, c2, rows)
	lp := dbc.LevelPlanes{C0: c0, C1: c1, C2: c2, N: rows[0].N}
	return reductionOfPlanes(lp, blocksize, hasCp)
}

// countRowsInto accumulates the per-wire '1' counts of rows into zeroed
// carry-save counter planes, word-parallel.
func countRowsInto(c0, c1, c2 []uint64, rows []dbc.Row) {
	for _, r := range rows {
		for i, w := range r.Words {
			t0 := c0[i] & w
			c0[i] ^= w
			t1 := c1[i] & t0
			c1[i] ^= t0
			c2[i] |= t1
		}
	}
}

// reduceRowsScratch is reduceRowsFunctional on the unit's scratch arena:
// the counter planes live in a dedicated buffer and the S/C/C' outputs
// are scratch rows, valid until the enclosing top-level op returns. The
// in-place lane shifts route C and C' up one and two positions, exactly
// as reductionOfPlanes does.
func (u *Unit) reduceRowsScratch(rows []dbc.Row, blocksize int, hasCp bool) Reduction {
	words := len(rows[0].Words)
	cs := scratchWords(&u.scratch.redWords, 3*words)
	c0, c1, c2 := cs[:words], cs[words:2*words], cs[2*words:]
	countRowsInto(c0, c1, c2, rows)

	s := u.scratchRow()
	copy(s.Words, c0)
	s.MaskTail()
	c := u.scratchRow()
	copy(c.Words, c1)
	c.MaskTail()
	laneShiftLeftKInto(c, c, blocksize, 1)
	red := Reduction{S: s, C: c}
	if hasCp {
		cp := u.scratchRow()
		copy(cp.Words, c2)
		cp.MaskTail()
		laneShiftLeftKInto(cp, cp, blocksize, 2)
		red.Cp = cp
	}
	return red
}
