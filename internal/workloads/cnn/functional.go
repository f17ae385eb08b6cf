package cnn

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/pim"
)

// This file is the functional counterpart of §IV: a small convolutional
// network executed bit-exactly on the PIM unit — multiplications through
// the shifted-copy/CSA path, accumulation through multi-operand
// addition, signed arithmetic via two's complement, ReLU via the
// sign-bit-predicated refresh, and max pooling via the TR tournament.
// The tests compare it against a plain integer reference.

// TinyCNN is a one-channel 3×3 convolution + ReLU + 2×2 max-pool
// network with signed integer weights.
type TinyCNN struct {
	Kernel [3][3]int // weights in [-15, 15]
}

// laneW is the two's-complement accumulator width used on the DBC.
const laneW = 16

// InferRef computes the reference output: convolve (valid padding),
// ReLU, then 2×2 max pool (input dims must make conv output even).
func (t *TinyCNN) InferRef(img [][]int) [][]int {
	h, w := len(img)-2, len(img[0])-2
	conv := make([][]int, h)
	for y := 0; y < h; y++ {
		conv[y] = make([]int, w)
		for x := 0; x < w; x++ {
			acc := 0
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					acc += t.Kernel[ky][kx] * img[y+ky][x+kx]
				}
			}
			if acc < 0 {
				acc = 0
			}
			conv[y][x] = acc
		}
	}
	out := make([][]int, h/2)
	for y := range out {
		out[y] = make([]int, w/2)
		for x := range out[y] {
			m := conv[2*y][2*x]
			for _, v := range []int{conv[2*y][2*x+1], conv[2*y+1][2*x], conv[2*y+1][2*x+1]} {
				if v > m {
					m = v
				}
			}
			out[y][x] = m
		}
	}
	return out
}

// InferPIM runs the same network on the PIM unit. Image values must be
// in [0, 15] so products fit the 8-bit multiplier lanes.
func (t *TinyCNN) InferPIM(u *pim.Unit, img [][]int) ([][]int, error) {
	defer u.Span("cnn-functional")()
	h, w := len(img)-2, len(img[0])-2
	if h <= 0 || w <= 0 || h%2 != 0 || w%2 != 0 {
		return nil, fmt.Errorf("cnn: conv output %dx%d not poolable", h, w)
	}
	lanes := u.Width() / laneW
	conv := make([][]int, h)
	for y := range conv {
		conv[y] = make([]int, w)
	}
	// Convolution + ReLU, one row of output pixels per batch of lanes.
	pixels := make([][2]int, 0, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pixels = append(pixels, [2]int{y, x})
		}
	}
	for start := 0; start < len(pixels); start += lanes {
		batch := pixels[start:min(start+lanes, len(pixels))]
		if err := t.convBatch(u, img, batch, conv); err != nil {
			return nil, err
		}
	}

	// Max pooling through the TR tournament: the four pool candidates
	// become four rows whose lane l holds window l's candidate.
	out := make([][]int, h/2)
	for y := range out {
		out[y] = make([]int, w/2)
	}
	windows := make([][2]int, 0, (h/2)*(w/2))
	for y := 0; y < h/2; y++ {
		for x := 0; x < w/2; x++ {
			windows = append(windows, [2]int{y, x})
		}
	}
	for start := 0; start < len(windows); start += lanes {
		batch := windows[start:min(start+lanes, len(windows))]
		if err := poolBatch(u, conv, batch, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// convBatch computes convolution + ReLU for one batch of output pixels
// on one unit, writing the results into conv.
func (t *TinyCNN) convBatch(u *pim.Unit, img [][]int, batch [][2]int, conv [][]int) error {
	var posRows, negRows []dbc.Row
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			wgt := t.Kernel[ky][kx]
			if wgt == 0 {
				continue
			}
			a := make([]uint64, len(batch))
			b := make([]uint64, len(batch))
			for i, p := range batch {
				a[i] = uint64(img[p[0]+ky][p[1]+kx])
				b[i] = uint64(abs(wgt))
			}
			prods, err := u.MultiplyValues(a, b, laneW/2)
			if err != nil {
				return err
			}
			row, err := pim.PackLanes(prods, laneW, u.Width())
			if err != nil {
				return err
			}
			if wgt > 0 {
				posRows = append(posRows, row)
			} else {
				negRows = append(negRows, row)
			}
		}
	}
	pos, err := sumRows(u, posRows)
	if err != nil {
		return err
	}
	neg, err := sumRows(u, negRows)
	if err != nil {
		return err
	}
	// acc = pos − neg via two's complement: pos + ~neg + 1.
	acc := pos
	if !neg.IsEmpty() {
		ones := make([]uint64, len(batch))
		for i := range ones {
			ones[i] = 1
		}
		oneRow, err := pim.PackLanes(ones, laneW, u.Width())
		if err != nil {
			return err
		}
		operands := []dbc.Row{complementRow(neg), oneRow}
		if !acc.IsEmpty() {
			operands = append([]dbc.Row{acc}, operands...)
		}
		acc, err = sumRows(u, operands)
		if err != nil {
			return err
		}
	}
	if acc.IsEmpty() {
		acc = dbc.NewRow(u.Width())
	}
	relued, err := u.ReLU(acc, laneW)
	if err != nil {
		return err
	}
	vals := pim.UnpackLanes(relued, laneW)
	for i, p := range batch {
		conv[p[0]][p[1]] = int(vals[i])
	}
	return nil
}

// poolBatch runs the 2×2 TR max-pool tournament for one batch of pool
// windows on one unit, writing the results into out.
func poolBatch(u *pim.Unit, conv [][]int, batch [][2]int, out [][]int) error {
	cand := make([]dbc.Row, 4)
	for c := 0; c < 4; c++ {
		vals := make([]uint64, len(batch))
		for i, p := range batch {
			vals[i] = uint64(conv[2*p[0]+c/2][2*p[1]+c%2])
		}
		row, err := pim.PackLanes(vals, laneW, u.Width())
		if err != nil {
			return err
		}
		cand[c] = row
	}
	maxRow, err := u.MaxLarge(cand, laneW)
	if err != nil {
		return err
	}
	vals := pim.UnpackLanes(maxRow, laneW)
	for i, p := range batch {
		out[p[0]][p[1]] = int(vals[i])
	}
	return nil
}

// sumRows adds rows lane-wise in chunks of the unit's operand limit.
// Empty input yields the empty Row sentinel.
func sumRows(u *pim.Unit, rows []dbc.Row) (dbc.Row, error) {
	switch len(rows) {
	case 0:
		return dbc.Row{}, nil
	case 1:
		return rows[0], nil
	}
	maxK := u.TRD().MaxAddOperands()
	acc := rows[0]
	rest := rows[1:]
	for len(rest) > 0 {
		k := min(maxK-1, len(rest))
		operands := append([]dbc.Row{acc}, rest[:k]...)
		var err error
		acc, err = u.AddMulti(operands, laneW)
		if err != nil {
			return dbc.Row{}, err
		}
		rest = rest[k:]
	}
	return acc, nil
}

func complementRow(r dbc.Row) dbc.Row {
	out := dbc.NewRow(r.N)
	for i, w := range r.Words {
		out.Words[i] = ^w
	}
	out.MaskTail()
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
