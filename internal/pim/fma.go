package pim

import (
	"fmt"

	"repro/internal/dbc"
)

// FMA computes a·b + c lane-wise (fused multiply-add): operands divide
// into product lanes of 2·bw bits, a and b carry bw-bit values in their
// low halves exactly as Multiply, and the addend c may use the full
// 2·bw-bit lane. The result holds a·b + c modulo 2^(2·bw).
//
// The fusion reuses the Multiply partial-product planes: the addend row
// simply joins the bw shifted copies (one write plus one placement
// shift), so the accumulation costs no extra addition pass — the same
// reduction tree that compresses the partial products folds c in, or,
// when one addition takes them all (bw=4 at TRD 7, 27 cycles), the
// carry chain sums them where they were placed. This is the PIRM
// composition of the §III-D optimized multiplication.
func (u *Unit) FMA(a, b, c dbc.Row, bw int) (dbc.Row, error) {
	u.rec.Begin(u.src, "fma")
	defer u.rec.End(u.src)
	laneW := 2 * bw
	if err := u.checkBlocksize(laneW); err != nil {
		return dbc.Row{}, fmt.Errorf("pim: product lane: %w", err)
	}
	width := u.D.Width()
	if a.N != width || b.N != width || c.N != width {
		return dbc.Row{}, fmt.Errorf("pim: operand widths %d,%d,%d, want %d", a.N, b.N, c.N, width)
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

	// The addend joins the partial products in the window: one write
	// step plus one placement shift, like any operand entering it.
	rows := append(u.genPartialProducts(u.scratchRowList(bw+1), a, b, laneW, bw), c)
	return u.sumProducts(rows, bw, laneW)
}
