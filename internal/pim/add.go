package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
)

// AddMulti adds up to TRD−2 operand rows lane-wise (Fig. 6, §III-C).
// Each operand row is divided into independent lanes of blocksize bits
// (little-endian along the wire index); the result row holds the lane
// sums modulo 2^blocksize, with carries masked at lane boundaries by the
// memory controller (§III-E).
//
// The carry chain walks the lanes' bit positions serially: at step j a
// transverse read of wire j (in every lane, in parallel) senses the
// operand bits together with the incoming carry C (right port slot) and
// super-carry C' (left port slot); the level's binary decomposition gives
// S (kept at wire j's left port), C (sent to wire j+1's right port), and
// C' (sent to wire j+2's left port) in one simultaneous write step. The
// result remains stored in the DBC: the returned row equals the row under
// the left port.
//
// Cycle anchor (§V-B): 8-bit five-operand add = 10 placement + 16
// compute = 26 cycles for TRD=7; the TRD=3 two-operand layout saves the
// final placement shift: 3 + 16 = 19 cycles.
func (u *Unit) AddMulti(operands []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "add")
	defer u.rec.End(u.src)
	return u.addMulti(operands, blocksize, 1)
}

// addMulti is the body AddMulti and AddMultiNMR share: it validates the
// operands, places them in the window and runs the carry chain with
// each bit position sensed votes times (1 for the plain add).
func (u *Unit) addMulti(operands []dbc.Row, blocksize, votes int) (dbc.Row, error) {
	k := len(operands)
	if k < 2 {
		return dbc.Row{}, fmt.Errorf("pim: add needs at least 2 operands, got %d", k)
	}
	if max := u.maxAddOperands(); k > max {
		return dbc.Row{}, fmt.Errorf("pim: add with %d operands exceeds limit %d for %v: %w", k, max, u.cfg.TRD, params.ErrBadTRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	for _, r := range operands {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", r.N, width)
		}
	}
	u.enterOp()
	defer u.exitOp()
	hasCp := u.cfg.TRD.HasSuperCarry()
	// TRD≥5: operands at positions 1..k, position 0 is the S/C' slot and
	// the last position the C slot. TRD=3: operands at positions 0..k−1
	// (S overwrites an operand slot after its TR), C slot at the right.
	if err := u.placeWindow(operands, placement{finalShift: hasCp}); err != nil {
		return dbc.Row{}, err
	}
	return u.addPlaced(blocksize, hasCp, votes), nil
}

// addPlaced runs the per-bit carry chain over operands already placed in
// the window and returns the sum row. The chain is word-parallel: at bit
// position j every lane's wire j is selected by a periodic phase mask,
// one masked transverse read senses all of them at once, and the level
// planes are the scatter planes directly — C0 is S (kept at the left
// port), C1 shifted up one wire is C (sent to the right port), C2
// shifted up two wires is C' (left port). 64 lanes per word operation.
// With votes > 1, senseVoted repeats each position's read and votes the
// planes before the scatter.
func (u *Unit) addPlaced(blocksize int, hasCp bool, votes int) dbc.Row {
	sum := dbc.NewRow(u.D.Width())
	u.addPlacedInto(sum, blocksize, hasCp, votes, nil)
	return sum
}

// addPlacedInto is addPlaced accumulating into a caller-owned row of the
// DBC width (cleared first), so iterative users of the chain — the
// restoring divider runs it once per quotient bit — stay on the scratch
// arena instead of allocating a fresh sum row per step.
//
// cout, when non-nil (words of the DBC width), collects each lane's
// carry-out as the chain senses it: the carry C the TR of the lane's
// MSB produces, and the super-carries C' that would land past the lane
// (from its two top wires). The lane-boundary mask drops these bits
// from the sum; here they are ORed into cout at the lane's MSB wire,
// without clearing it, so chained adds accumulate. Any carry past the
// lane means its sum reached 2^blocksize, so a set bit marks exactly the
// lanes that overflowed. An injected TR fault reaches cout as it reaches
// the sum.
func (u *Unit) addPlacedInto(sum dbc.Row, blocksize int, hasCp bool, votes int, cout []uint64) {
	width := u.D.Width()
	b := blocksize
	for i := range sum.Words {
		sum.Words[i] = 0
	}
	words := len(sum.Words)
	scratch := scratchWords(&u.scratch.addWords, 5*words)
	mask := scratch[:words]
	cBits := scratch[words : 2*words]
	cMask := scratch[2*words : 3*words]
	left := scratch[3*words : 4*words]
	leftMask := scratch[4*words:]
	for j := 0; j < b; j++ {
		nw := 0
		for i := range mask {
			mask[i] = 0
		}
		for t := j; t < width; t += b {
			mask[t>>6] |= 1 << uint(t&63)
			nw++
		}
		u.senseVoted(mask, nw, votes)
		lp := u.lp
		count := nw
		// S stays at the selected wires' left ports and is the result bit.
		copy(left, lp.C0)
		copy(leftMask, mask)
		for i := range sum.Words {
			sum.Words[i] |= lp.C0[i]
		}
		// C feeds the next bit position: right port of wire t+1.
		var rBits, rMask []uint64
		if j+1 < b {
			shiftWordsUp(cBits, lp.C1, 1)
			shiftWordsUp(cMask, mask, 1)
			rBits, rMask = cBits, cMask
			count += nw
		}
		if cout != nil {
			senseCarryOut(cout, lp, j, b, hasCp)
		}
		// C' skips a position: left port of wire t+2 (disjoint from the S
		// wires whenever it is generated, since j+2 < b implies b > 2).
		if hasCp && j+2 < b {
			for i, w := range lp.C2 {
				var lo uint64
				if i > 0 {
					lo = lp.C2[i-1] >> 62
				}
				left[i] |= w<<2 | lo
				var lm uint64
				if i > 0 {
					lm = mask[i-1] >> 62
				}
				leftMask[i] |= mask[i]<<2 | lm
			}
			count += nw
		}
		u.D.WriteScatterPlanes(left, leftMask, rBits, rMask, count)
	}
	sum.MaskTail()
}

// senseCarryOut ORs into cout, at each lane's MSB wire, the carries the
// chain's bit-j TR sends past the lane: C and C' off the MSB wire
// (j = b−1), and C' off the wire below it (j = b−2, moved up one wire).
// The level planes hold only bit-j wires, so no other lane's bits leak.
func senseCarryOut(cout []uint64, lp dbc.LevelPlanes, j, b int, hasCp bool) {
	switch {
	case j == b-1:
		for i := range cout {
			cout[i] |= lp.C1[i]
			if hasCp {
				cout[i] |= lp.C2[i]
			}
		}
	case hasCp && j == b-2:
		var carry uint64
		for i, w := range lp.C2 {
			cout[i] |= w<<1 | carry
			carry = w >> 63
		}
	}
}

// shiftWordsUp sets dst to src shifted k bit positions toward higher
// wire indices, carrying across word boundaries (k < 64).
func shiftWordsUp(dst, src []uint64, k uint) {
	var carry uint64
	for i, w := range src {
		dst[i] = w<<k | carry
		carry = w >> (64 - k)
	}
}
