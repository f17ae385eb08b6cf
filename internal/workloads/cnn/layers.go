package cnn

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/pim"
)

// This file is the functional counterpart of §IV: multi-channel
// convolution (§IV-A), max pooling (§IV-B) and the fully-connected layer
// with bias and ReLU (§IV-C), composed into a Sequential network that
// runs bit-exactly on the PIM unit — multiplications through the
// shifted-copy/CSA path, accumulation through multi-operand addition,
// signed arithmetic via two's complement, ReLU via the
// sign-bit-predicated refresh, max pooling via the TR tournament — and
// is verified against integer references.

// laneW is the two's-complement accumulator width used on the DBC.
const laneW = 16

// Tensor3 is a [channel][row][col] integer activation volume.
type Tensor3 [][][]int

// NewTensor3 allocates a zero tensor.
func NewTensor3(c, h, w int) Tensor3 {
	t := make(Tensor3, c)
	for i := range t {
		t[i] = make([][]int, h)
		for y := range t[i] {
			t[i][y] = make([]int, w)
		}
	}
	return t
}

// Dims returns the tensor's shape.
func (t Tensor3) Dims() (c, h, w int) {
	if len(t) == 0 || len(t[0]) == 0 {
		return len(t), 0, 0
	}
	return len(t), len(t[0]), len(t[0][0])
}

// PIMLayer is one stage of a Sequential network (distinct from the
// analytic Layer descriptors of nets.go: these layers actually execute).
type PIMLayer interface {
	// Forward computes the layer output on the PIM unit.
	Forward(u *pim.Unit, x Tensor3) (Tensor3, error)
	// ForwardRef computes the reference output with plain integers.
	ForwardRef(x Tensor3) Tensor3
}

// ConvLayer is a 3×3 valid-padding convolution with signed integer
// weights, per-output-channel bias, and ReLU.
type ConvLayer struct {
	W [][][3][3]int // [outC][inC] kernels, weights in [-15, 15]
	B []int         // per-output-channel bias
}

// ForwardRef computes the reference convolution.
func (l *ConvLayer) ForwardRef(x Tensor3) Tensor3 {
	_, h, w := x.Dims()
	out := NewTensor3(len(l.W), h-2, w-2)
	for oc := range l.W {
		for y := 0; y < h-2; y++ {
			for xx := 0; xx < w-2; xx++ {
				acc := l.B[oc]
				for ic := range l.W[oc] {
					for ky := 0; ky < 3; ky++ {
						for kx := 0; kx < 3; kx++ {
							acc += l.W[oc][ic][ky][kx] * x[ic][y+ky][xx+kx]
						}
					}
				}
				if acc < 0 {
					acc = 0
				}
				out[oc][y][xx] = acc
			}
		}
	}
	return out
}

// Forward computes the convolution on the PIM unit: per output channel,
// the taps of every input channel become lane-parallel multiplications,
// positive and negative partial sums accumulate through the
// large-cardinality adder, and the ReLU predicated refresh applies the
// activation.
func (l *ConvLayer) Forward(u *pim.Unit, x Tensor3) (Tensor3, error) {
	c, h, w := x.Dims()
	if len(l.W) == 0 || len(l.B) != len(l.W) {
		return nil, fmt.Errorf("cnn: malformed conv layer")
	}
	if h < 3 || w < 3 {
		return nil, fmt.Errorf("cnn: input %dx%d too small for 3x3 kernels", h, w)
	}
	lanes := u.Width() / laneW
	out := NewTensor3(len(l.W), h-2, w-2)
	pixels := make([][2]int, 0, (h-2)*(w-2))
	for y := 0; y < h-2; y++ {
		for xx := 0; xx < w-2; xx++ {
			pixels = append(pixels, [2]int{y, xx})
		}
	}
	for oc := range l.W {
		if len(l.W[oc]) != c {
			return nil, fmt.Errorf("cnn: conv out-channel %d has %d kernels for %d input channels",
				oc, len(l.W[oc]), c)
		}
		for start := 0; start < len(pixels); start += lanes {
			batch := pixels[start:min(start+lanes, len(pixels))]
			var posRows, negRows []dbc.Row
			for ic := 0; ic < c; ic++ {
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						wgt := l.W[oc][ic][ky][kx]
						if wgt == 0 {
							continue
						}
						av := make([]uint64, len(batch))
						bv := make([]uint64, len(batch))
						for i, p := range batch {
							av[i] = uint64(x[ic][p[0]+ky][p[1]+kx])
							bv[i] = uint64(abs(wgt))
						}
						prods, err := u.MultiplyValues(av, bv, laneW/2)
						if err != nil {
							return nil, err
						}
						row, err := pim.PackLanes(prods, laneW, u.Width())
						if err != nil {
							return nil, err
						}
						if wgt > 0 {
							posRows = append(posRows, row)
						} else {
							negRows = append(negRows, row)
						}
					}
				}
			}
			// Bias joins the positive (or, two's complement, negative)
			// partial sums as one more operand row.
			bias := l.B[oc]
			if bias != 0 {
				bv := make([]uint64, len(batch))
				for i := range bv {
					bv[i] = uint64(abs(bias))
				}
				row, err := pim.PackLanes(bv, laneW, u.Width())
				if err != nil {
					return nil, err
				}
				if bias > 0 {
					posRows = append(posRows, row)
				} else {
					negRows = append(negRows, row)
				}
			}
			acc, err := signedSum(u, posRows, negRows, len(batch))
			if err != nil {
				return nil, err
			}
			relued, err := u.ReLU(acc, laneW)
			if err != nil {
				return nil, err
			}
			vals := pim.UnpackLanes(relued, laneW)
			for i, p := range batch {
				out[oc][p[0]][p[1]] = int(vals[i])
			}
		}
	}
	return out, nil
}

// signedSum computes Σpos − Σneg in two's-complement lanes: Σneg goes
// through the gate's NOT, and the +1 row joins the add that folds it
// into Σpos (§III-D1).
func signedSum(u *pim.Unit, posRows, negRows []dbc.Row, batch int) (dbc.Row, error) {
	var pos dbc.Row // the empty Row sentinel while there are no positive terms
	if len(posRows) > 0 {
		var err error
		if pos, err = u.AddChained(posRows, laneW); err != nil {
			return dbc.Row{}, err
		}
	}
	if len(negRows) == 0 {
		if pos.IsEmpty() {
			return dbc.NewRow(u.Width()), nil
		}
		return pos, nil
	}
	neg, err := u.AddChained(negRows, laneW)
	if err != nil {
		return dbc.Row{}, err
	}
	notNeg, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{neg})
	if err != nil {
		return dbc.Row{}, err
	}
	ones := make([]uint64, batch)
	for i := range ones {
		ones[i] = 1
	}
	oneRow, err := pim.PackLanes(ones, laneW, u.Width())
	if err != nil {
		return dbc.Row{}, err
	}
	operands := []dbc.Row{notNeg, oneRow}
	if !pos.IsEmpty() {
		operands = append([]dbc.Row{pos}, operands...)
	}
	return u.AddLarge(operands, laneW)
}

// PoolLayer is a 2×2 max pool (§IV-B), executed through the TR
// tournament.
type PoolLayer struct{}

// ForwardRef computes the reference pooling.
func (PoolLayer) ForwardRef(x Tensor3) Tensor3 {
	c, h, w := x.Dims()
	out := NewTensor3(c, h/2, w/2)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h/2; y++ {
			for xx := 0; xx < w/2; xx++ {
				m := x[ch][2*y][2*xx]
				for _, v := range []int{x[ch][2*y][2*xx+1], x[ch][2*y+1][2*xx], x[ch][2*y+1][2*xx+1]} {
					if v > m {
						m = v
					}
				}
				out[ch][y][xx] = m
			}
		}
	}
	return out
}

// Forward pools on the PIM unit.
func (PoolLayer) Forward(u *pim.Unit, x Tensor3) (Tensor3, error) {
	c, h, w := x.Dims()
	if h%2 != 0 || w%2 != 0 {
		return nil, fmt.Errorf("cnn: %dx%d not 2x2-poolable", h, w)
	}
	lanes := u.Width() / laneW
	out := NewTensor3(c, h/2, w/2)
	type win struct{ ch, y, x int }
	wins := make([]win, 0, c*(h/2)*(w/2))
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h/2; y++ {
			for xx := 0; xx < w/2; xx++ {
				wins = append(wins, win{ch, y, xx})
			}
		}
	}
	for start := 0; start < len(wins); start += lanes {
		batch := wins[start:min(start+lanes, len(wins))]
		cand := make([]dbc.Row, 4)
		for cIdx := 0; cIdx < 4; cIdx++ {
			vals := make([]uint64, len(batch))
			for i, p := range batch {
				vals[i] = uint64(x[p.ch][2*p.y+cIdx/2][2*p.x+cIdx%2])
			}
			row, err := pim.PackLanes(vals, laneW, u.Width())
			if err != nil {
				return nil, err
			}
			cand[cIdx] = row
		}
		maxRow, err := u.MaxLarge(cand, laneW)
		if err != nil {
			return nil, err
		}
		vals := pim.UnpackLanes(maxRow, laneW)
		for i, p := range batch {
			out[p.ch][p.y][p.x] = int(vals[i])
		}
	}
	return out, nil
}

// FCLayer is the fully-connected layer of §IV-C: y = ReLU(W·x + b),
// with the flattened input vector and signed integer weights.
type FCLayer struct {
	W [][]int // [out][in]
	B []int
}

// flatten lays a tensor out channel-major.
func flatten(x Tensor3) []int {
	var v []int
	for _, ch := range x {
		for _, row := range ch {
			v = append(v, row...)
		}
	}
	return v
}

// ForwardRef computes the reference output as a 1×1×out tensor.
func (l *FCLayer) ForwardRef(x Tensor3) Tensor3 {
	in := flatten(x)
	out := NewTensor3(len(l.W), 1, 1)
	for j := range l.W {
		acc := l.B[j]
		for i, w := range l.W[j] {
			acc += w * in[i]
		}
		if acc < 0 {
			acc = 0
		}
		out[j][0][0] = acc
	}
	return out
}

// Forward computes the layer on the PIM unit: output neurons batch
// across lanes; every input feature contributes one lane-parallel
// multiplication row, and the signed accumulation plus ReLU follow
// §IV-C's predicated row refresh on the sign bit.
func (l *FCLayer) Forward(u *pim.Unit, x Tensor3) (Tensor3, error) {
	in := flatten(x)
	if len(l.W) == 0 || len(l.B) != len(l.W) {
		return nil, fmt.Errorf("cnn: malformed fc layer")
	}
	lanes := u.Width() / laneW
	out := NewTensor3(len(l.W), 1, 1)
	for start := 0; start < len(l.W); start += lanes {
		end := min(start+lanes, len(l.W))
		batch := end - start
		var posRows, negRows []dbc.Row
		for i, xi := range in {
			if xi == 0 {
				continue
			}
			av := make([]uint64, batch)
			bv := make([]uint64, batch)
			anyPos, anyNeg := false, false
			for j := 0; j < batch; j++ {
				wji := l.W[start+j][i]
				av[j] = uint64(xi)
				bv[j] = uint64(abs(wji))
				if wji > 0 {
					anyPos = true
				}
				if wji < 0 {
					anyNeg = true
				}
			}
			prods, err := u.MultiplyValues(av, bv, laneW/2)
			if err != nil {
				return nil, err
			}
			// Split by weight sign per lane.
			if anyPos {
				pv := make([]uint64, batch)
				for j := 0; j < batch; j++ {
					if l.W[start+j][i] > 0 {
						pv[j] = prods[j]
					}
				}
				row, err := pim.PackLanes(pv, laneW, u.Width())
				if err != nil {
					return nil, err
				}
				posRows = append(posRows, row)
			}
			if anyNeg {
				nv := make([]uint64, batch)
				for j := 0; j < batch; j++ {
					if l.W[start+j][i] < 0 {
						nv[j] = prods[j]
					}
				}
				row, err := pim.PackLanes(nv, laneW, u.Width())
				if err != nil {
					return nil, err
				}
				negRows = append(negRows, row)
			}
		}
		// Bias, split by sign per lane.
		pb := make([]uint64, batch)
		nb := make([]uint64, batch)
		hasPB, hasNB := false, false
		for j := 0; j < batch; j++ {
			b := l.B[start+j]
			if b > 0 {
				pb[j] = uint64(b)
				hasPB = true
			} else if b < 0 {
				nb[j] = uint64(-b)
				hasNB = true
			}
		}
		if hasPB {
			row, err := pim.PackLanes(pb, laneW, u.Width())
			if err != nil {
				return nil, err
			}
			posRows = append(posRows, row)
		}
		if hasNB {
			row, err := pim.PackLanes(nb, laneW, u.Width())
			if err != nil {
				return nil, err
			}
			negRows = append(negRows, row)
		}
		acc, err := signedSum(u, posRows, negRows, batch)
		if err != nil {
			return nil, err
		}
		relued, err := u.ReLU(acc, laneW)
		if err != nil {
			return nil, err
		}
		vals := pim.UnpackLanes(relued, laneW)
		for j := 0; j < batch; j++ {
			out[start+j][0][0] = int(vals[j])
		}
	}
	return out, nil
}

// Sequential chains layers into a network.
type Sequential struct {
	Layers []PIMLayer
}

// Forward runs the network on the PIM unit.
func (s *Sequential) Forward(u *pim.Unit, x Tensor3) (Tensor3, error) {
	cur := x
	for i, l := range s.Layers {
		next, err := l.Forward(u, cur)
		if err != nil {
			return nil, fmt.Errorf("cnn: layer %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// ForwardRef runs the reference network.
func (s *Sequential) ForwardRef(x Tensor3) Tensor3 {
	cur := x
	for _, l := range s.Layers {
		cur = l.ForwardRef(cur)
	}
	return cur
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
