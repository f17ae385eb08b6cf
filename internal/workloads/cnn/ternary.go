package cnn

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/pim"
)

// TernaryConv is a DrAcc-style [41] ternary-weight convolution (§V-E's
// TWN mode) on binary activations, executed bit-exactly on the PIM
// unit: weights in {-1, 0, +1} split the taps into a positive and a
// negative popcount; the pre-activation is pop(+) − pop(−), and the
// output bit is its sign (a binarized activation for the next layer).
type TernaryConv struct {
	Kernel [3][3]int // weights in {-1, 0, 1}
}

// InferRef computes the reference output (valid padding): out = 1 iff
// Σ w·a > 0 for binary activations a.
func (t *TernaryConv) InferRef(img [][]uint8) [][]uint8 {
	h, w := len(img)-2, len(img[0])-2
	out := make([][]uint8, h)
	for y := 0; y < h; y++ {
		out[y] = make([]uint8, w)
		for x := 0; x < w; x++ {
			acc := 0
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					acc += t.Kernel[ky][kx] * int(img[y+ky][x+kx])
				}
			}
			if acc > 0 {
				out[y][x] = 1
			}
		}
	}
	return out
}

// InferPIM runs the convolution on the PIM unit: one tap row per
// non-zero weight, positive and negative popcounts through AddLarge,
// the subtraction in two's complement, and the sign from the lane MSB
// (via ReLU's predicated refresh: positive pre-activations survive).
func (t *TernaryConv) InferPIM(u *pim.Unit, img [][]uint8) ([][]uint8, error) {
	defer u.Span("cnn-ternary")()
	h, w := len(img)-2, len(img[0])-2
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("cnn: image too small for a 3x3 kernel")
	}
	const lane = 8
	lanes := u.Width() / lane
	out := make([][]uint8, h)
	for y := range out {
		out[y] = make([]uint8, w)
	}
	pixels := make([][2]int, 0, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pixels = append(pixels, [2]int{y, x})
		}
	}
	for start := 0; start < len(pixels); start += lanes {
		batch := pixels[start:min(start+lanes, len(pixels))]
		var posRows, negRows []dbc.Row
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				wgt := t.Kernel[ky][kx]
				if wgt == 0 {
					continue
				}
				row := dbc.NewRow(u.Width())
				for i, p := range batch {
					row.Set(i*lane, img[p[0]+ky][p[1]+kx])
				}
				if wgt > 0 {
					posRows = append(posRows, row)
				} else {
					negRows = append(negRows, row)
				}
			}
		}
		pos, err := popcount(u, posRows, lane)
		if err != nil {
			return nil, err
		}
		neg, err := popcount(u, negRows, lane)
		if err != nil {
			return nil, err
		}
		// pre = pos − neg = pos + ~neg + 1 (two's complement, 8-bit lanes).
		ones := make([]uint64, u.Width()/lane)
		for i := range ones {
			ones[i] = 1
		}
		oneRow, err := pim.PackLanes(ones, lane, u.Width())
		if err != nil {
			return nil, err
		}
		notNeg, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{neg})
		if err != nil {
			return nil, err
		}
		pre, err := u.AddLarge([]dbc.Row{pos, notNeg, oneRow}, lane)
		if err != nil {
			return nil, err
		}
		// Sign: lanes with MSB set (negative) or zero are inactive; the
		// ReLU predicated refresh zeroes the negatives, then any nonzero
		// lane is a firing output.
		relued, err := u.ReLU(pre, lane)
		if err != nil {
			return nil, err
		}
		vals := pim.UnpackLanes(relued, lane)
		for i, p := range batch {
			if vals[i] > 0 {
				out[p[0]][p[1]] = 1
			}
		}
	}
	return out, nil
}

// popcount sums single-bit tap rows lane-wise; no rows give a zero row.
func popcount(u *pim.Unit, rows []dbc.Row, lane int) (dbc.Row, error) {
	if len(rows) == 0 {
		return dbc.NewRow(u.Width()), nil
	}
	if len(rows) == 1 {
		return rows[0], nil
	}
	return u.AddLarge(rows, lane)
}
