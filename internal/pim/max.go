package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// MaxTR computes the lane-wise maximum of up to TRD candidate rows using
// the transverse-read tournament of §IV-B (Fig. 8): bit positions are
// examined MSB to LSB; at each position a TR across the candidates'
// bits decides, per lane, whether candidates with a '0' there are
// eliminated (overwritten with the zero vector). Each candidate is read
// from the right port and returned to its place through a transverse
// write from the left port — the segmented shift that motivates TW.
//
// Lanes are blocksize bits wide, values unsigned. Candidates that tie for
// the maximum all survive; the final result is extracted with a last TR
// whose OR output reads the surviving value regardless of its position.
func (u *Unit) MaxTR(candidates []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "max")
	defer u.rec.End(u.src)
	k := len(candidates)
	if k < 2 {
		return dbc.Row{}, fmt.Errorf("pim: max needs at least 2 candidates, got %d", k)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return dbc.Row{}, fmt.Errorf("pim: max with %d candidates exceeds TRD %d: %w", k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	for _, r := range candidates {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: candidate width %d, want %d", r.N, width)
		}
	}
	u.enterOp()
	defer u.exitOp()
	if err := u.placeWindow(candidates, 0, false); err != nil {
		return dbc.Row{}, err
	}

	lanes := width / blocksize
	wires := scratchInts(&u.scratch.wires, lanes)
	levels := scratchInts(&u.scratch.levels, width)
	row := u.scratchRow() // tournament rotation buffer, reused per TW
	for j := blocksize - 1; j >= 0; j-- {
		// TR across the candidates' bit j, one wire per lane.
		for l := 0; l < lanes; l++ {
			wires[l] = l*blocksize + j
		}
		if err := u.D.TRWiresInto(levels, wires); err != nil {
			return dbc.Row{}, err
		}
		// Rotate all TRD window rows once around: read at the right
		// port, predicated row-buffer reset, transverse write at the
		// left port. Rows holding padding rotate like candidates so the
		// controller sequence is identical across subarrays (§IV-B).
		for r := 0; r < int(u.cfg.TRD); r++ {
			u.D.ReadPortInto(dbcRight, row)
			for l := 0; l < lanes; l++ {
				w := l*blocksize + j
				if levels[w] > 0 && row.Get(w) == 0 {
					// Some candidate has a '1' here and this one does
					// not: the predicated reset zeroes the lane.
					zeroLane(row, l, blocksize)
				}
			}
			u.D.TW(row)
		}
	}

	// Extraction: a final TR per wire; the OR output reads the max
	// (losers are zero vectors; ties overlap harmlessly).
	return dbc.EvalPlanes(dbc.OpOR, u.trAll(), u.cfg.TRD), nil
}

// ReLU applies the rectifier of §IV-C lane-wise to two's-complement
// values: lanes whose sign bit (lane MSB) is set are replaced by zero
// using a predicated row refresh; other lanes pass through. One read of
// the MSB wires plus one predicated write.
func (u *Unit) ReLU(row dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "relu")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	if row.N != width {
		return dbc.Row{}, fmt.Errorf("pim: row width %d, want %d", row.N, width)
	}
	lanes := width / blocksize
	u.tr.Read(lanes) // sign-bit wires into the row buffer
	u.rec.Step(u.src, telemetry.OpRead, lanes)
	u.tr.Write(width) // predicated refresh
	u.rec.Step(u.src, telemetry.OpWrite, width)
	out := row.Clone()
	for l := 0; l < lanes; l++ {
		if out.Get(l*blocksize+blocksize-1) == 1 {
			zeroLane(out, l, blocksize)
		}
	}
	return out, nil
}
