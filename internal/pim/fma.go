package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// FMA computes a·b + c lane-wise (fused multiply-add): operands divide
// into product lanes of 2·bw bits, a and b carry bw-bit values in their
// low halves exactly as Multiply, and the addend c may use the full
// 2·bw-bit lane. The result holds a·b + c modulo 2^(2·bw).
//
// The fusion reuses the Multiply partial-product planes: the addend row
// simply joins the bw shifted copies in the carry-save reduction set
// (one write plus one placement shift), so the accumulation costs no
// extra addition pass — the same reduction tree that compresses the
// partial products folds c in. This is the PIRM composition of the
// §III-D optimized multiplication.
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

	rows := u.genPartialProducts(u.scratchRowList(bw+1), a, b, laneW, bw)
	// The addend joins the reduction set in the window: one write step
	// plus one placement shift, like any operand entering the window.
	rows = append(rows, c)
	u.chargeStep(telemetry.OpWrite, width)
	u.chargeStep(telemetry.OpShift, width)
	return u.reduceAndAddScratch(rows, laneW, min(int(u.cfg.TRD), len(rows)))
}

// FMAValues is the lane-value convenience wrapper for FMA: products and
// addends pack into 2·bw-bit lanes; results are a[i]·b[i]+c[i] modulo
// 2^(2·bw).
func (u *Unit) FMAValues(a, b, c []uint64, bw int) ([]uint64, error) {
	if len(a) != len(b) || len(a) != len(c) {
		return nil, fmt.Errorf("pim: operand counts %d, %d and %d differ", len(a), len(b), len(c))
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
	rc, err := PackLanes(c, laneW, u.D.Width())
	if err != nil {
		return nil, err
	}
	out, err := u.FMA(ra, rb, rc, bw)
	if err != nil {
		return nil, err
	}
	return UnpackLanes(out, laneW)[:len(a)], nil
}
