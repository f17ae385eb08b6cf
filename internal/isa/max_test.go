package isa

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
)

// maxCost runs one max kernel on a fresh default-geometry unit at the
// given TRD and returns its traced cycles and energy.
func maxCost(t *testing.T, trd params.TRD, run func(u *pim.Unit, rows []dbc.Row) error, k int) (int, float64) {
	t.Helper()
	cfg := params.DefaultConfig()
	cfg.TRD = trd
	u := pim.MustNewUnit(cfg)
	rows := make([]dbc.Row, k)
	for i := range rows {
		rows[i] = dbc.NewRow(u.Width())
	}
	if err := run(u, rows); err != nil {
		t.Fatalf("%v k=%d: %v", trd, k, err)
	}
	return u.Stats().Cycles(), u.Cost().EnergyPJ
}

// TestDispatchMaxPicksCheaperKernel measures both max kernels at every
// blocksize the default track holds and at TRD 3, 5 and 7: for two
// candidates Dispatch runs the compare-select, which costs fewer cycles
// and less energy than the TW tournament; for 3..TRD candidates it runs
// the tournament, at the tournament's cost.
func TestDispatchMaxPicksCheaperKernel(t *testing.T) {
	width := params.DefaultGeometry().TrackWidth
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, bs := range params.BlockSizes {
			if bs > width {
				continue
			}
			for k := 2; k <= trd.MaxBulkOperands(); k++ {
				in := Instruction{Op: OpMax, Blocksize: bs, Operands: k}
				dc, de := maxCost(t, trd, func(u *pim.Unit, rows []dbc.Row) error {
					_, _, err := Dispatch(u, in, rows)
					return err
				}, k)
				tc, te := maxCost(t, trd, func(u *pim.Unit, rows []dbc.Row) error {
					_, err := u.MaxTR(rows, bs)
					return err
				}, k)
				if k > 2 {
					if dc != tc || de != te {
						t.Errorf("%v bs=%d k=%d: Dispatch %d cycles %.1f pJ, MaxTR %d cycles %.1f pJ", trd, bs, k, dc, de, tc, te)
					}
					continue
				}
				sc, se := maxCost(t, trd, func(u *pim.Unit, rows []dbc.Row) error {
					_, err := u.MaxSelect(rows[0], rows[1], bs)
					return err
				}, k)
				if dc != sc || de != se {
					t.Errorf("%v bs=%d k=2: Dispatch %d cycles %.1f pJ, MaxSelect %d cycles %.1f pJ", trd, bs, dc, de, sc, se)
				}
				if sc >= tc || se >= te {
					t.Errorf("%v bs=%d k=2: MaxSelect %d cycles %.1f pJ, not below MaxTR's %d cycles %.1f pJ", trd, bs, sc, se, tc, te)
				}
			}
		}
	}
}
