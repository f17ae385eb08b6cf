package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// ErrShiftAmount reports a variable-shift amount outside 0..blocksize.
// Test with errors.Is.
var ErrShiftAmount = fmt.Errorf("pim: shift amount outside 0..blocksize")

// LogicalShift shifts every blocksize-bit lane of a by amount bits —
// toward the lane MSB when left is true — filling with zeros, and
// returns the result row. amount ranges 0..blocksize inclusive; a
// full-width shift clears every lane.
//
// The cost model follows XDWM's observation that a racetrack shifts
// data natively along the nanowire: the row is sensed once under the
// access port, the track performs `amount` lateral shift steps, and the
// shifted row is written back. Shifting is therefore priced as
// racetrack shift steps — not as data moves or per-bit gate
// evaluations — so a k-bit shift costs k + 2 control steps regardless
// of lane count.
func (u *Unit) LogicalShift(a dbc.Row, amount, blocksize int, left bool) (dbc.Row, error) {
	u.rec.Begin(u.src, "shift")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width {
		return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", a.N, width)
	}
	if amount < 0 || amount > blocksize {
		return dbc.Row{}, fmt.Errorf("pim: amount %d with blocksize %d: %w", amount, blocksize, ErrShiftAmount)
	}
	out := dbc.NewRow(width)
	if left {
		laneShiftLeftKInto(out, a, blocksize, amount)
	} else {
		laneShiftRightKInto(out, a, blocksize, amount)
	}
	u.D.Charge(telemetry.OpRead, width)
	for s := 0; s < amount; s++ {
		u.D.Charge(telemetry.OpShift, width)
	}
	u.D.Charge(telemetry.OpWrite, width)
	return out, nil
}
