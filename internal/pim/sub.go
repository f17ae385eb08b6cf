package pim

import (
	"fmt"

	"repro/internal/dbc"
)

// Sub computes a − b lane-wise in two's complement: the NOT output of
// the polymorphic gate complements the subtrahend (§III-B), and a single
// multi-operand addition folds in the +1 correction row — the same
// pattern the paper uses for negative Booth terms (§III-D1: "−515A can
// be computed by generating ~515A + 1 ... which is still one addition
// step"). Results are modulo 2^blocksize (two's-complement negatives
// have the lane MSB set; ReLU interprets them as negative).
func (u *Unit) Sub(a, b dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "sub")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width || b.N != width {
		return dbc.Row{}, fmt.Errorf("pim: operand widths %d,%d, want %d", a.N, b.N, width)
	}
	// Complement the subtrahend through the NOT gate (one bulk pass).
	nb, err := u.BulkBitwise(dbc.OpNOT, []dbc.Row{b})
	if err != nil {
		return dbc.Row{}, err
	}
	lanes := width / blocksize
	ones := make([]uint64, lanes)
	for i := range ones {
		ones[i] = 1
	}
	oneRow, err := PackLanes(ones, blocksize, width)
	if err != nil {
		return dbc.Row{}, err
	}
	if u.maxAddOperands() >= 3 {
		return u.AddMulti([]dbc.Row{a, nb, oneRow}, blocksize)
	}
	// TRD=3: two-operand adder needs two steps.
	t, err := u.AddMulti([]dbc.Row{a, nb}, blocksize)
	if err != nil {
		return dbc.Row{}, err
	}
	return u.AddMulti([]dbc.Row{t, oneRow}, blocksize)
}

// SubValues is the lane-value convenience wrapper for Sub; results are
// modulo 2^blocksize.
func (u *Unit) SubValues(a, b []uint64, blocksize int) ([]uint64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("pim: operand counts %d and %d differ", len(a), len(b))
	}
	ra, err := PackLanes(a, blocksize, u.D.Width())
	if err != nil {
		return nil, err
	}
	rb, err := PackLanes(b, blocksize, u.D.Width())
	if err != nil {
		return nil, err
	}
	diff, err := u.Sub(ra, rb, blocksize)
	if err != nil {
		return nil, err
	}
	return UnpackLanes(diff, blocksize)[:len(a)], nil
}
