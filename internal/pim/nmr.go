package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// ValidNMR reports whether n is a supported modular-redundancy degree for
// the unit's TRD: the paper supports N ∈ {3,5,7} with N ≤ TRD (§III-F).
func (u *Unit) ValidNMR(n int) bool {
	return (n == 3 || n == 5 || n == 7) && n <= int(u.cfg.TRD)
}

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
	if err := u.placeWindow(rows, 0, true); err != nil {
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
func (u *Unit) AddMultiNMR(n int, operands []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "add-nmr")
	defer u.rec.End(u.src)
	if !u.ValidNMR(n) {
		return dbc.Row{}, fmt.Errorf("pim: unsupported redundancy degree %d for %v: %w", n, u.cfg.TRD, params.ErrBadTRD)
	}
	k := len(operands)
	if k < 2 {
		return dbc.Row{}, fmt.Errorf("pim: add needs at least 2 operands, got %d", k)
	}
	if max := u.maxAddOperands(); k > max {
		return dbc.Row{}, fmt.Errorf("pim: add with %d operands exceeds limit %d for %v", k, max, u.cfg.TRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	for _, r := range operands {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", r.N, width)
		}
	}
	hasCp := u.cfg.TRD.HasSuperCarry()
	if err := u.placeWindow(operands, 0, hasCp); err != nil {
		return dbc.Row{}, err
	}

	b := blocksize
	sum := dbc.NewRow(width)
	wires := make([]int, 0, width/b)
	for j := 0; j < b; j++ {
		wires = wires[:0]
		for t := j; t < width; t += b {
			wires = append(wires, t)
		}
		// Sense the same window n times; vote per output bit.
		votesS := make([]int, width)
		votesC := make([]int, width)
		votesCp := make([]int, width)
		for rep := 0; rep < n; rep++ {
			levels, err := u.D.TRWires(wires)
			if err != nil {
				return dbc.Row{}, err
			}
			for _, t := range wires {
				o := dbc.Sense(levels[t], u.cfg.TRD)
				votesS[t] += int(o.S)
				votesC[t] += int(o.C)
				votesCp[t] += int(o.Cp)
			}
		}
		u.Tracer().Logic() // the majority evaluation (C' circuit reuse)
		u.rec.Step(u.src, telemetry.OpLogic, 0)
		writes := make([]dbc.PortBit, 0, 3*len(wires))
		for _, t := range wires {
			s := majBit(votesS[t], n)
			sum.Set(t, s)
			writes = append(writes, dbc.PortBit{Wire: t, Side: dbcLeft, Bit: s})
			if j+1 < b {
				writes = append(writes, dbc.PortBit{Wire: t + 1, Side: dbcRight, Bit: majBit(votesC[t], n)})
			}
			if hasCp && j+2 < b {
				writes = append(writes, dbc.PortBit{Wire: t + 2, Side: dbcLeft, Bit: majBit(votesCp[t], n)})
			}
		}
		u.D.WriteScatter(writes)
	}
	return sum, nil
}

func majBit(votes, n int) uint8 {
	if 2*votes > n {
		return 1
	}
	return 0
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
