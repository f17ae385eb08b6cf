package pim

import (
	"fmt"

	"repro/internal/dbc"
)

// MaxLarge computes the lane-wise maximum of arbitrarily many candidate
// rows by chunking the TR tournament: each round keeps the running
// maximum and consumes up to TRD−1 further candidates, exactly how a
// pooling layer with more inputs than the window handles them (§IV-B).
func (u *Unit) MaxLarge(candidates []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "max-large")
	defer u.rec.End(u.src)
	switch len(candidates) {
	case 0:
		return dbc.Row{}, fmt.Errorf("pim: max with no candidates")
	case 1:
		return copyRow(candidates[0]), nil
	}
	maxK := u.cfg.TRD.MaxBulkOperands()
	acc := candidates[0]
	rest := candidates[1:]
	for len(rest) > 0 {
		take := min(maxK-1, len(rest))
		group := append([]dbc.Row{acc}, rest[:take]...)
		var err error
		acc, err = u.MaxTR(group, blocksize)
		if err != nil {
			return dbc.Row{}, err
		}
		rest = rest[take:]
	}
	return acc, nil
}
