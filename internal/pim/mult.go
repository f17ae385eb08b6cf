package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// Multiply multiplies lane-wise (§III-D2/D3, "optimized multiplication").
// The operand rows are divided into product lanes of 2·bw bits; each lane
// carries one bw-bit value in its low half. The returned row holds the
// exact 2·bw-bit products.
//
// The algorithm is the paper's O(n) optimized multiplication:
//
//  1. The multiplier B is brought into the row buffer (one read).
//  2. bw partial products are generated by the lateral i→i+1 shifted
//     read/write path — each copy also shifts one more position — with a
//     predicated write driver zeroing lanes whose multiplier bit is '0'
//     (one shifted copy plus one DW shift per partial product).
//  3. Carry-save TRD→3 reductions compress the partial products until at
//     most TRD−2 rows remain; the first reduction's operands are already
//     in the window from generation, later rounds rotate extra rows in at
//     two cycles each. Each round is a sensed whole-DBC TR whose S, C
//     and C' are written back into the window (reducePlaced), so an
//     injected TR fault reaches the product through every round.
//  4. A final multi-operand addition (DBC-executed) produces the product.
//
// When one addition takes every partial product (bw ≤ TRD−2: bw=4 at
// TRD 7), generation places them in the window where that addition
// reads them, and the carry chain runs on them in place: 25 cycles at
// bw=4, TRD 7. With bw=8 and TRD=7 the reductions run and the multiply
// costs 61 cycles against the paper's 64 (§V-B); the delta is recorded
// in EXPERIMENTS.md.
func (u *Unit) Multiply(a, b dbc.Row, bw int) (dbc.Row, error) {
	u.rec.Begin(u.src, "mult")
	defer u.rec.End(u.src)
	laneW := 2 * bw
	if err := u.checkBlocksize(laneW); err != nil {
		return dbc.Row{}, fmt.Errorf("pim: product lane: %w", err)
	}
	width := u.D.Width()
	if a.N != width || b.N != width {
		return dbc.Row{}, fmt.Errorf("pim: operand widths %d,%d, want %d", a.N, b.N, width)
	}
	for base := 0; base < width; base += laneW {
		for j := bw; j < laneW; j++ {
			if a.Get(base+j) != 0 || b.Get(base+j) != 0 {
				return dbc.Row{}, fmt.Errorf("pim: operand value exceeds %d bits in lane %d: %w", bw, base/laneW, ErrLaneOverflow)
			}
		}
	}

	u.enterOp()
	defer u.exitOp()

	pps := u.genPartialProducts(u.scratchRowList(bw), a, b, laneW, bw)
	return u.sumProducts(pps, bw, laneW)
}

// genPartialProducts runs Multiply's step 1 and the dataflow of step 2:
// the multiplier read and the bw predicated shifted copies, appended to
// the scratch-backed pps list. sumProducts charges the copies as it
// places them.
func (u *Unit) genPartialProducts(pps []dbc.Row, a, b dbc.Row, laneW, bw int) []dbc.Row {
	// Step 1: multiplier into the row buffer.
	u.D.Charge(telemetry.OpRead, u.D.Width())

	// Step 2: predicated shifted copies (§III-D: "to write k shifted
	// copies with a max logical distance of k requires k shifted
	// read/write operations and k DW shifts"). cur ping-pongs into one
	// scratch row after the first shift and then shifts in place; each
	// partial product gets its own scratch row, alive until step 4.
	cur := a
	for i := 0; i < bw; i++ {
		if i > 0 {
			if i == 1 {
				sh := u.scratchRow()
				laneShiftLeftInto(sh, cur, laneW)
				cur = sh
			} else {
				laneShiftLeftInto(cur, cur, laneW)
			}
		}
		pp := u.scratchRow()
		maskByMultiplierBitInto(pp, cur, b, i, laneW)
		pps = append(pps, pp)
	}
	return pps
}

// sumProducts runs Multiply's steps 2–4 on a scratch-backed row list
// whose first copies rows are partial products and whose rest (FMA's
// addend) enter by port write, one shift step each either way. When one
// addition takes every row, they are placed once, through placeWindow,
// where the final add's carry chain reads them. Otherwise the
// generation steps are charged as they stand and the rows go to the
// carry-save reductions (reduceAndAddScratch, which splices the slice).
func (u *Unit) sumProducts(rows []dbc.Row, copies, laneW int) (dbc.Row, error) {
	hasCp := u.cfg.TRD.HasSuperCarry()
	if len(rows) <= u.maxAddOperands() {
		if err := u.placeWindow(rows, placement{finalShift: hasCp, copies: copies}); err != nil {
			return dbc.Row{}, err
		}
		return u.addPlaced(laneW, hasCp, 1), nil
	}
	width := u.D.Width()
	for i := range rows {
		if i < copies {
			u.D.Charge(telemetry.OpCopy, width)
		} else {
			u.D.Charge(telemetry.OpWrite, width)
		}
		u.D.Charge(telemetry.OpShift, width)
	}
	return u.reduceAndAddScratch(rows, laneW, min(int(u.cfg.TRD), len(rows)))
}

// reduceAndAddScratch runs Multiply's steps 3–4 on a scratch-backed row
// list: carry-save reductions compress the rows until one multi-operand
// addition fits, then the final add runs on the DBC. inWindow says how
// many leading rows the charged steps already placed in the TR window;
// the rest rotate in at one shift plus one write each. Each round's
// rows then go into the window where those charged steps put them
// (pokeWindow) for the sensed reduction. The slice is spliced in place,
// so it must not be reused by the caller afterwards.
func (u *Unit) reduceAndAddScratch(rows []dbc.Row, laneW, inWindow int) (dbc.Row, error) {
	width := u.D.Width()
	outputs := 2
	if u.cfg.TRD.HasSuperCarry() {
		outputs = 3
	}
	maxAdd := u.maxAddOperands()
	trdN := int(u.cfg.TRD)
	// Step 3: carry-save reductions until a single addition suffices.
	for len(rows) > maxAdd {
		k := min(trdN, len(rows))
		for r := inWindow; r < k; r++ {
			// Rotate an out-of-window row in: one shift, one write.
			u.D.Charge(telemetry.OpShift, width)
			u.D.Charge(telemetry.OpWrite, width)
		}
		if err := u.pokeWindow(rows[:k]); err != nil {
			return dbc.Row{}, err
		}
		rows = splice(rows, k, u.reducePlaced(laneW))
		inWindow = outputs
	}

	// Step 4: final multi-operand addition on the DBC (a round leaves
	// at least its two or three outputs, so at least two rows remain).
	return u.AddMulti(rows, laneW)
}

// maskByMultiplierBitInto writes into out, a caller-owned row of pp's
// width that must not alias it, pp with each lane zeroed whose
// multiplier lane has a zero at bit i — the predicated copy of §III-D2
// that retains only the needed shifted versions of A. For lanes that
// divide the word size the per-lane predicate is smeared word-parallel:
// the multiplier bits are isolated, moved to the lane base, and
// multiplied by the all-ones lane to build the keep mask with three
// word operations.
func maskByMultiplierBitInto(out, pp, b dbc.Row, i, laneW int) {
	switch {
	case 64%laneW == 0:
		pat := lanePattern(laneW, i)
		laneOnes := uint64(1)<<uint(laneW) - 1
		if laneW == 64 {
			laneOnes = ^uint64(0)
		}
		for k, w := range pp.Words {
			sel := b.Words[k] & pat
			out.Words[k] = w & ((sel >> uint(i)) * laneOnes)
		}
		out.MaskTail()
	case laneW%64 == 0:
		wpl := laneW / 64
		for l := 0; l*laneW < pp.N; l++ {
			dst := out.Words[l*wpl : (l+1)*wpl]
			if b.Get(l*laneW+i) == 0 {
				for j := range dst {
					dst[j] = 0 // dropped lane (out may be a reused buffer)
				}
				continue
			}
			copy(dst, pp.Words[l*wpl:(l+1)*wpl])
		}
	default:
		for base := 0; base < pp.N; base += laneW {
			keep := b.Get(base+i) != 0
			for t := base; t < base+laneW; t++ {
				if keep {
					out.Set(t, pp.Get(t))
				} else {
					out.Set(t, 0)
				}
			}
		}
	}
}

// MultiplyValues is a convenience wrapper: it packs the operand values
// into 2·bw-bit product lanes, multiplies, and unpacks the products. At
// most Width/(2·bw) values can be multiplied per call.
func (u *Unit) MultiplyValues(a, b []uint64, bw int) ([]uint64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("pim: operand counts %d and %d differ", len(a), len(b))
	}
	laneW := 2 * bw
	ra, err := PackLanes(a, laneW, u.D.Width())
	if err != nil {
		return nil, err
	}
	rb, err := PackLanes(b, laneW, u.D.Width())
	if err != nil {
		return nil, err
	}
	prod, err := u.Multiply(ra, rb, bw)
	if err != nil {
		return nil, err
	}
	return UnpackLanes(prod, laneW)[:len(a)], nil
}
