package pim

import "repro/internal/dbc"

// arena is the unit's per-operation scratch allocator: a bump pool of
// width-sized rows plus a few dedicated flat buffers, so the Multiply /
// MaxTR / AddMulti hot loops reach zero steady-state allocations (the
// ISSUE-4 alloc hotspots). The pool resets when a *top-level* operation
// begins — a depth counter makes nested operations (Multiply's final
// AddMulti) share the enclosing op's pool instead of clobbering it.
//
// Scratch rows obey the same aliasing rule as the unit's level-plane
// scratch u.lp: they are valid only until the enclosing top-level
// operation returns and must never be handed to callers. Results that
// escape a public operation are always freshly allocated or cloned (the
// dbc.Row ownership contract); the scratchescape analyzer enforces this
// statically.
type arena struct {
	depth int

	rows []dbc.Row // pooled width-sized rows; rows[:used] are handed out
	used int

	addWords  []uint64  // addPlaced: phase mask + scatter planes (5 × words)
	voteWords []uint64  // senseVoted: S/C/C' vote counters (9 × words)
	rowList   []dbc.Row // Multiply, AddLarge, subChainInto: operand / reduction row list
}

// enterOp opens an operation scope: the outermost scope reclaims every
// pooled buffer. Pair with `defer u.exitOp()`.
func (u *Unit) enterOp() {
	if u.scratch.depth == 0 {
		u.scratch.used = 0
	}
	u.scratch.depth++
}

func (u *Unit) exitOp() { u.scratch.depth-- }

// scratchRow returns a zeroed scratch row of the DBC width, valid until
// the enclosing top-level operation returns. Never return one to a
// caller — Clone what escapes.
func (u *Unit) scratchRow() dbc.Row {
	a := &u.scratch
	if a.used == len(a.rows) {
		a.rows = append(a.rows, dbc.NewRow(u.D.Width()))
	}
	r := a.rows[a.used]
	a.used++
	for i := range r.Words {
		r.Words[i] = 0
	}
	return r
}

// scratchWords returns buf resized to n zeroed words, growing it in
// place so the steady state is allocation-free.
func scratchWords(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// scratchRowList returns an empty row list with capacity ≥ n backed by
// the arena, for the Multiply partial-product chain.
func (u *Unit) scratchRowList(n int) []dbc.Row {
	a := &u.scratch
	if cap(a.rowList) < n {
		a.rowList = make([]dbc.Row, 0, n)
	}
	return a.rowList[:0]
}
