package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// SignedDigit is one term of a canonical signed-digit (CSD) recoding: the
// value Sign·2^Shift. The paper (§III-D1) uses the P/0/N Booth-style
// notation for the same thing.
type SignedDigit struct {
	Shift int
	Sign  int // +1 or -1
}

// CSD returns the canonical signed-digit recoding of c: a minimal-weight
// representation with no two adjacent non-zero digits, so runs of '1's
// collapse into one addition and one subtraction (the paper's example:
// 20061 → POPOONOPONOONOP, nine '1's replaced by eight signed digits).
func CSD(c uint64) []SignedDigit {
	var digits []SignedDigit
	for i := 0; c != 0; i++ {
		if c&1 == 1 {
			// A run of ones ...0111 is cheaper as +2^k − 2^i when at
			// least two ones run together (c mod 4 == 3).
			if c&3 == 3 {
				digits = append(digits, SignedDigit{Shift: i, Sign: -1})
				c += 1 // borrow propagates the run into a single carry
			} else {
				digits = append(digits, SignedDigit{Shift: i, Sign: +1})
				c -= 1
			}
		}
		c >>= 1
	}
	return digits
}

// CSDValue evaluates a signed-digit recoding (for tests).
func CSDValue(digits []SignedDigit) int64 {
	var v int64
	for _, d := range digits {
		v += int64(d.Sign) * (1 << uint(d.Shift))
	}
	return v
}

// ConstMulPlan is a compiled schedule for multiplying by a known constant
// (§III-D1): groups of signed-digit terms, each group one multi-operand
// addition step. Negative terms are realized as one's complements with
// the "+1" corrections pre-summed into a single constant operand, so a
// group with negatives still takes one addition step.
type ConstMulPlan struct {
	Constant uint64
	Groups   [][]SignedDigit
}

// PlanConstMul compiles a constant into addition groups of at most
// maxOperands terms (reserving one operand slot for the +1 correction
// row when a group contains negative terms). Each group after the first
// also carries the previous group's running sum as an operand.
func PlanConstMul(c uint64, maxOperands int) (ConstMulPlan, error) {
	if maxOperands < 2 {
		return ConstMulPlan{}, fmt.Errorf("pim: const-mul needs at least 2-operand addition, got %d", maxOperands)
	}
	digits := CSD(c)
	if maxOperands == 2 {
		// A two-operand adder cannot host a complemented term plus its
		// +1 correction in one step, so fall back to the plain binary
		// (all-positive) expansion.
		digits = digits[:0]
		for i := 0; i < 64; i++ {
			if c&(1<<uint(i)) != 0 {
				digits = append(digits, SignedDigit{Shift: i, Sign: +1})
			}
		}
	}
	plan := ConstMulPlan{Constant: c}
	i := 0
	first := true
	for i < len(digits) {
		// Operand slots: the running sum (groups after the first)
		// consumes one; the first negative term consumes one extra for
		// the shared +1 correction row. Fill greedily.
		budget := maxOperands
		if !first {
			budget--
		}
		var group []SignedDigit
		hasNeg := false
		for i < len(digits) {
			d := digits[i]
			need := 1
			if d.Sign < 0 && !hasNeg {
				need = 2
			}
			if need > budget {
				break
			}
			budget -= need
			if d.Sign < 0 {
				hasNeg = true
			}
			group = append(group, d)
			i++
		}
		if len(group) == 0 {
			return ConstMulPlan{}, fmt.Errorf("pim: const-mul plan stalled at digit %d", i)
		}
		plan.Groups = append(plan.Groups, group)
		first = false
	}
	return plan, nil
}

// AdditionSteps returns the number of multi-operand addition steps the
// plan needs (the paper's metric: 20061·A takes two steps with TRD=7).
func (p ConstMulPlan) AdditionSteps() int { return len(p.Groups) }

// ConstMultiply multiplies the lane values of a by the compile-time
// constant c using shifted copies and the planned addition steps. Lanes
// are 2·bw bits wide with the bw-bit input in the low half; products are
// reduced modulo 2^(2·bw).
func (u *Unit) ConstMultiply(a dbc.Row, c uint64, bw int) (dbc.Row, error) {
	u.rec.Begin(u.src, "const-mult")
	defer u.rec.End(u.src)
	laneW := 2 * bw
	if err := u.checkBlocksize(laneW); err != nil {
		return dbc.Row{}, fmt.Errorf("pim: product lane: %w", err)
	}
	if c == 0 {
		return zeroRow(u.D.Width()), nil
	}
	plan, err := PlanConstMul(c, u.maxAddOperands())
	if err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width {
		return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", a.N, width)
	}

	// Generate the shifted copies A<<s for every distinct shift in the
	// plan, charging the lateral copy chain up to the largest shift.
	maxShift := 0
	for _, g := range plan.Groups {
		for _, d := range g {
			if d.Shift > maxShift {
				maxShift = d.Shift
			}
		}
	}
	shifted := make([]dbc.Row, maxShift+1)
	shifted[0] = a
	for s := 1; s <= maxShift; s++ {
		shifted[s] = dbc.NewRow(width)
		laneShiftLeftInto(shifted[s], shifted[s-1], laneW)
		u.D.Charge(telemetry.OpCopy, width)
		u.D.Charge(telemetry.OpShift, width)
	}

	var sum dbc.Row
	for _, g := range plan.Groups {
		operands := make([]dbc.Row, 0, len(g)+2)
		if !sum.IsEmpty() {
			operands = append(operands, sum)
		}
		var correction uint64
		for _, d := range g {
			term := shifted[d.Shift]
			if d.Sign < 0 {
				// −x = ~x + 1 (mod 2^laneW): complement the term and
				// accumulate the +1 into the shared correction row.
				term = complementLanes(term, laneW)
				u.D.Charge(telemetry.OpLogic, 0) // inverted read through the NOR path
				correction++
			}
			operands = append(operands, term)
		}
		if correction > 0 {
			corr := make([]uint64, width/laneW)
			for i := range corr {
				corr[i] = correction
			}
			row, err := PackLanes(corr, laneW, width)
			if err != nil {
				return dbc.Row{}, err
			}
			operands = append(operands, row)
		}
		if len(operands) == 1 {
			sum = operands[0]
			continue
		}
		sum, err = u.AddMulti(operands, laneW)
		if err != nil {
			return dbc.Row{}, err
		}
	}
	return sum, nil
}

// complementLanes returns the bitwise complement of each lane
// (word-parallel; lanes tile the row exactly, so this is a whole-row
// complement under the tail mask).
func complementLanes(r dbc.Row, laneW int) dbc.Row {
	out := dbc.NewRow(r.N)
	for i, w := range r.Words {
		out.Words[i] = ^w
	}
	out.MaskTail()
	_ = laneW
	return out
}
