package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// ValidNMR reports whether n is a supported modular-redundancy degree for
// the unit's TRD (params.TRD.ValidNMR).
func (u *Unit) ValidNMR(n int) bool { return u.cfg.TRD.ValidNMR(n) }

// Vote computes the bitwise majority of n replica rows using the C'
// circuit (§III-F, Fig. 7(c)/(d)): the replicas are placed in the window
// together with (TRD−N)/2 pre-populated '1' rows and (TRD−N)/2 '0' rows,
// so the level threshold TRD/2 rounds to the replica majority. One TR
// plus one write-back.
//
// An uncorrectable error needs ⌈N/2⌉ replicas faulty in the same bit
// position (or a C' sensing fault), giving the Table V reliability tiers.
func (u *Unit) Vote(replicas []dbc.Row) (dbc.Row, error) {
	u.rec.Begin(u.src, "vote")
	defer u.rec.End(u.src)
	n := len(replicas)
	if !u.ValidNMR(n) {
		return dbc.Row{}, fmt.Errorf("pim: unsupported redundancy degree %d for %v: %w", n, u.cfg.TRD, params.ErrBadTRD)
	}
	width := u.D.Width()
	for _, r := range replicas {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: replica width %d, want %d", r.N, width)
		}
	}
	pad := (int(u.cfg.TRD) - n) / 2
	rows := make([]dbc.Row, 0, n+pad)
	rows = append(rows, replicas...)
	for i := 0; i < pad; i++ {
		// The '1' halves of the balanced padding are placed as
		// operands; the '0' halves are the window's pad constant.
		rows = append(rows, constRow(width, 1))
	}
	if err := u.placeWindow(rows, placement{finalShift: true}); err != nil {
		return dbc.Row{}, err
	}
	// The C' threshold is the majority output (§III-F); evaluate it
	// word-parallel over the bit-sliced level planes.
	out := dbc.EvalPlanes(dbc.OpMAJ, u.trAll(), u.cfg.TRD)
	u.D.WritePort(dbcLeft, out)
	return out, nil
}

// AddMultiNMR performs the Fig. 6 multi-operand addition with per-step
// voting (§III-F): each bit position's transverse read repeats n times
// and the S/C/C' outputs are majority-voted *before* the scatter write,
// so a faulty sense cannot poison the carry chain. This is the
// fault-tolerance end of the paper's performance-versus-reliability
// trade-off — voting after the whole add is cheaper but lets carry
// errors accumulate ("nearly two orders of magnitude" apart, §V-F).
// It runs AddMulti's placement and carry chain, with n reads and one
// logic step per bit position.
func (u *Unit) AddMultiNMR(n int, operands []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "add-nmr")
	defer u.rec.End(u.src)
	if !u.ValidNMR(n) {
		return dbc.Row{}, fmt.Errorf("pim: unsupported redundancy degree %d for %v: %w", n, u.cfg.TRD, params.ErrBadTRD)
	}
	return u.addMulti(operands, blocksize, n)
}

// senseVoted is the carry chain's read of the wires mask selects (nw of
// them), left in u.lp. With votes > 1 the read repeats votes times; each
// of the S, C and C' planes is counted over the readings with a
// bit-sliced carry-save counter (countInto, the count a TR's level
// planes hold) and replaced by its majority, OpMAJ's comparator over a
// window of votes readings. One logic step charges the vote (the C'
// circuit reused, §III-F).
func (u *Unit) senseVoted(mask []uint64, nw, votes int) {
	if votes == 1 {
		u.D.TRMaskedInto(&u.lp, mask, nw)
		return
	}
	words := len(mask)
	cs := scratchWords(&u.scratch.voteWords, 9*words)
	planes := [3][]uint64{u.lp.C0, u.lp.C1, u.lp.C2} // S, C and C'
	var tally [3]dbc.LevelPlanes                     // each plane's count of '1' readings
	for p := range tally {
		c := cs[3*p*words : 3*(p+1)*words]
		tally[p] = dbc.LevelPlanes{C0: c[:words], C1: c[words : 2*words], C2: c[2*words:], N: u.lp.N}
	}
	for r := 0; r < votes; r++ {
		u.D.TRMaskedInto(&u.lp, mask, nw)
		for p, plane := range planes {
			countInto(tally[p].C0, tally[p].C1, tally[p].C2, plane)
		}
	}
	u.D.Charge(telemetry.OpLogic, 0)
	for p, plane := range planes {
		dbc.EvalPlanesInto(dbc.Row{Words: plane, N: u.lp.N}, dbc.OpMAJ, tally[p], params.TRD(votes))
	}
}

// RunNMR executes op n times and votes on the results (§III-F). The op
// callback must perform one PIM operation and return its result row; it
// runs once per replica so injected faults differ between replicas.
func (u *Unit) RunNMR(n int, op func() (dbc.Row, error)) (dbc.Row, error) {
	if !u.ValidNMR(n) {
		return dbc.Row{}, fmt.Errorf("pim: unsupported redundancy degree %d for %v: %w", n, u.cfg.TRD, params.ErrBadTRD)
	}
	replicas := make([]dbc.Row, n)
	for i := range replicas {
		r, err := op()
		if err != nil {
			return dbc.Row{}, fmt.Errorf("pim: replica %d: %w", i, err)
		}
		replicas[i] = r
	}
	return u.Vote(replicas)
}

// countInto adds the bits of one plane to the carry-save counter planes
// (at most seven planes fit the 3-bit counter).
func countInto(c0, c1, c2, x []uint64) {
	for i, w := range x {
		t0 := c0[i] & w
		c0[i] ^= w
		t1 := c1[i] & t0
		c1[i] ^= t0
		c2[i] |= t1
	}
}
