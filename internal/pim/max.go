package pim

import (
	"fmt"
	"math/bits"

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
	if err := u.checkCandidates(candidates, blocksize); err != nil {
		return dbc.Row{}, err
	}
	u.enterOp()
	defer u.exitOp()
	if err := u.placeWindow(candidates, placement{atRest: true}); err != nil {
		return dbc.Row{}, err
	}

	hit := u.scratchRow()
	row := u.scratchRow() // tournament rotation buffer, reused per TW
	for j := blocksize - 1; j >= 0; j-- {
		u.senseLaneBit(hit, j, blocksize)
		// Rotate all TRD window rows once around: read at the right
		// port, predicated row-buffer reset, transverse write at the
		// left port. Rows holding padding rotate like candidates so the
		// controller sequence is identical across subarrays (§IV-B).
		for r := 0; r < int(u.cfg.TRD); r++ {
			u.D.ReadPortInto(dbcRight, row)
			eliminate(row, hit, blocksize)
			u.D.TW(row)
		}
	}

	// Extraction: a final TR per wire; the OR output reads the max
	// (losers are zero vectors; ties overlap harmlessly).
	return dbc.EvalPlanes(dbc.OpOR, u.trAll(), u.cfg.TRD), nil
}

// checkCandidates validates the candidate rows of a TW-tournament max.
func (u *Unit) checkCandidates(candidates []dbc.Row, blocksize int) error {
	k := len(candidates)
	if k < 2 {
		return fmt.Errorf("pim: max needs at least 2 candidates, got %d", k)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return fmt.Errorf("pim: max with %d candidates exceeds TRD %d: %w", k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return err
	}
	for _, r := range candidates {
		if r.N != u.D.Width() {
			return fmt.Errorf("pim: candidate width %d, want %d", r.N, u.D.Width())
		}
	}
	return nil
}

// senseLaneBit senses bit j of every lane with one masked transverse
// read and leaves in hit the wires where some window row holds a '1':
// the OR of the three level planes.
func (u *Unit) senseLaneBit(hit dbc.Row, j, blocksize int) {
	for i := range hit.Words {
		hit.Words[i] = 0
	}
	lanes := hit.N / blocksize
	for l := 0; l < lanes; l++ {
		hit.Set(l*blocksize+j, 1)
	}
	u.D.TRMaskedInto(&u.lp, hit.Words, lanes)
	for i := range hit.Words {
		hit.Words[i] = u.lp.C0[i] | u.lp.C1[i] | u.lp.C2[i]
	}
	hit.MaskTail()
}

// eliminate is the tournament's predicated reset of one candidate row:
// a lane where some candidate has a '1' (hit, one wire per lane) and
// this row has a '0' is zeroed.
func eliminate(row, hit dbc.Row, blocksize int) {
	for i, h := range hit.Words {
		for kill := h &^ row.Words[i]; kill != 0; kill &= kill - 1 {
			zeroLane(row, (i<<6+bits.TrailingZeros64(kill))/blocksize, blocksize)
		}
	}
}

// MaxSelect computes the lane-wise maximum of two candidate rows on the
// Fig. 6 carry chain instead of the TW tournament: the trial
// subtraction a + ¬b + 1 of the restoring divider (DivMod) runs as one
// three-operand add (two chained adds on the TRD=3 window), and the
// carry each lane's chain sends past its MSB is set exactly where
// a ≥ b. A predicated write then keeps a in those lanes and b in the
// others, charged as one copy step like DivMod's restoring step. The
// difference itself is discarded.
//
// The select bit is the carry-out as the TRs sense it, so an injected
// TR fault reaches the result as it reaches MaxTR's. Lanes are
// blocksize bits wide, values unsigned; the result equals MaxTR's over
// the same two candidates, at a fraction of its cost (MaxTR rotates all
// TRD window rows once per bit).
func (u *Unit) MaxSelect(a, b dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "max")
	defer u.rec.End(u.src)
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	if a.N != width || b.N != width {
		return dbc.Row{}, fmt.Errorf("pim: candidate widths %d,%d, want %d", a.N, b.N, width)
	}
	u.enterOp()
	defer u.exitOp()

	notb, one, err := u.subtrahendRows(b, blocksize)
	if err != nil {
		return dbc.Row{}, err
	}
	diff := u.scratchRow()
	cout := u.scratchRow()
	if err := u.subChainInto(diff, a, notb, one, blocksize, cout.Words); err != nil {
		return dbc.Row{}, err
	}
	// Widen each lane's carry-out (at its MSB wire) to a lane mask.
	take := u.scratchRow()
	for l := 0; l < width/blocksize; l++ {
		if cout.Get(l*blocksize+blocksize-1) != 0 {
			setLane(take, l, blocksize)
		}
	}
	res := dbc.NewRow(width)
	u.predicatedCopy(res, a, b, take)
	return res, nil
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
	u.D.Charge(telemetry.OpRead, lanes)  // sign-bit wires into the row buffer
	u.D.Charge(telemetry.OpWrite, width) // predicated refresh
	out := row.Clone()
	for l := 0; l < lanes; l++ {
		if out.Get(l*blocksize+blocksize-1) == 1 {
			zeroLane(out, l, blocksize)
		}
	}
	return out, nil
}
