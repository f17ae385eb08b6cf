// Package device models the DWM (racetrack) nanowire at the domain level:
// domain-wall shifting, access-port reads and writes, the transverse read
// (TR) that senses the number of '1' domains between two access ports,
// and the transverse write (TW) with segmented shifting proposed by the
// paper (§IV-B, Fig. 9). It also provides the fault models used by the
// reliability study (§V-F).
package device

import (
	"fmt"

	"repro/internal/params"
)

// Bit is a single stored domain value, 0 or 1.
type Bit = uint8

// Side selects one of the two access ports of a PIM-enabled nanowire.
type Side int

// Access-port sides. The left port is the one closer to row 0.
const (
	Left Side = iota
	Right
)

func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Nanowire is a single DWM nanowire with two access ports spaced a
// transverse-read distance apart (Fig. 1, Fig. 2(d)). The wire stores
// Rows data domains plus the overhead domains required so that any data
// row can align with its nearest port without data loss (§III-A).
//
// Physically, access ports are fixed and the magnetic domains move; the
// model stores the domain contents in a fixed physical array and slides
// the data region across it.
type Nanowire struct {
	rows  int        // Y: number of data domains
	trd   params.TRD // window length between the ports, inclusive
	total int        // physical domains including overhead

	portL, portR int // physical indices of the access ports

	domains []Bit // physical domain array, index 0 = leftmost
	start   int   // physical index currently holding data row 0
	minS    int   // smallest legal start (rightmost excursion of row Y-1)
	maxS    int   // largest legal start (leftmost data row under port L)
}

// NewNanowire returns a wire with the given number of data rows and a
// port window of trd domains, ports centred per params.PortPlacement.
// All domains start at zero.
func NewNanowire(rows int, trd params.TRD) (*Nanowire, error) {
	if !trd.Valid() {
		return nil, fmt.Errorf("device: invalid %v", trd)
	}
	if rows < int(trd) {
		return nil, fmt.Errorf("device: rows %d < TRD %d", rows, int(trd))
	}
	pl, pr := params.PortPlacement(rows, trd)
	// Excursions: rows right of the window align to the right port
	// (data slides left by up to rows-1-pr), rows left of it align to
	// the left port (data slides right by up to pl).
	leftOver := rows - 1 - pr // overhead on the left extremity
	rightOver := pl           // overhead on the right extremity
	total := rows + leftOver + rightOver
	w := &Nanowire{
		rows:    rows,
		trd:     trd,
		total:   total,
		portL:   pl + leftOver,
		portR:   pr + leftOver,
		domains: make([]Bit, total),
		start:   leftOver,
		minS:    0,
		maxS:    leftOver + rightOver,
	}
	return w, nil
}

// Rows returns the number of data domains.
func (w *Nanowire) Rows() int { return w.rows }

// TRD returns the port window length.
func (w *Nanowire) TRD() params.TRD { return w.trd }

// TotalDomains returns the physical wire length including overhead
// domains (for Y=32, TRD=7 this is 57: 32 data + 25 overhead, §III-A).
func (w *Nanowire) TotalDomains() int { return w.total }

// Offset returns the current shift displacement of the data region from
// its rest position: positive means the data has moved right.
func (w *Nanowire) Offset() int {
	pl, _ := params.PortPlacement(w.rows, w.trd)
	rest := w.portL - pl
	return w.start - rest
}

// OffsetBounds returns the legal excursion of Offset: the most negative
// and most positive displacements the overhead domains allow (the
// reference-model counterpart of PlaneArray.OffsetBounds).
func (w *Nanowire) OffsetBounds() (lo, hi int) {
	pl, _ := params.PortPlacement(w.rows, w.trd)
	rest := w.portL - pl
	return w.minS - rest, w.maxS - rest
}

// rowPhys returns the physical index currently holding data row r.
func (w *Nanowire) rowPhys(r int) int { return w.start + r }

// SetRow overwrites data row r directly, bypassing the access ports.
// It models the initial state of the memory (data written before the
// traced operation begins) and is also used by tests.
func (w *Nanowire) SetRow(r int, b Bit) {
	w.checkRow(r)
	w.domains[w.rowPhys(r)] = b & 1
}

// PeekRow returns data row r without modelling an access (for tests and
// result extraction).
func (w *Nanowire) PeekRow(r int) Bit {
	w.checkRow(r)
	return w.domains[w.rowPhys(r)]
}

func (w *Nanowire) checkRow(r int) {
	if r < 0 || r >= w.rows {
		panic(fmt.Sprintf("device: row %d out of range [0,%d)", r, w.rows))
	}
}

// ShiftRight moves every domain one position toward the right extremity.
// The domain at the right extremity is pushed off the wire (it is always
// an overhead domain when shift bounds are respected).
func (w *Nanowire) ShiftRight() error {
	if w.start+1 > w.maxS {
		return fmt.Errorf("device: shift right would push data off the wire (start=%d)", w.start)
	}
	copy(w.domains[1:], w.domains[:w.total-1])
	w.domains[0] = 0
	w.start++
	return nil
}

// ShiftLeft moves every domain one position toward the left extremity.
func (w *Nanowire) ShiftLeft() error {
	if w.start-1 < w.minS {
		return fmt.Errorf("device: shift left would push data off the wire (start=%d)", w.start)
	}
	copy(w.domains[:w.total-1], w.domains[1:])
	w.domains[w.total-1] = 0
	w.start--
	return nil
}

// Shift moves the data by steps positions (positive = right), one step at
// a time.
func (w *Nanowire) Shift(steps int) error {
	for ; steps > 0; steps-- {
		if err := w.ShiftRight(); err != nil {
			return err
		}
	}
	for ; steps < 0; steps++ {
		if err := w.ShiftLeft(); err != nil {
			return err
		}
	}
	return nil
}

// port returns the physical index of the requested port.
func (w *Nanowire) port(s Side) int {
	if s == Left {
		return w.portL
	}
	return w.portR
}

// RowAtPort returns the data row currently aligned under the port, or -1
// if an overhead domain is under it.
func (w *Nanowire) RowAtPort(s Side) int {
	r := w.port(s) - w.start
	if r < 0 || r >= w.rows {
		return -1
	}
	return r
}

// AlignSteps returns the signed shift (positive = right) that aligns data
// row r under the given port.
func (w *Nanowire) AlignSteps(r int, s Side) int {
	w.checkRow(r)
	return w.port(s) - w.rowPhys(r)
}

// NearestPort returns the feasible port requiring the fewest shift steps
// to align row r, along with that signed step count (NearestPortAt at
// the wire's offset).
func (w *Nanowire) NearestPort(r int) (Side, int) {
	w.checkRow(r)
	return NearestPortAt(w.rows, w.trd, r, w.Offset())
}

// NearestPortAt is the port rule of every wire of rows data rows and a
// trd window whose head stands at offset off: the feasible port that
// aligns row r in the fewest shift steps, and that signed step count
// (positive = right). Rows past rows-trd cannot reach the left port
// without data falling off the wire, nor rows before trd-1 the right
// one; a tie goes left. Nanowire and PlaneArray align by it, and
// memory's pricer prices a port access by it without a wire.
func NearestPortAt(rows int, trd params.TRD, r, off int) (Side, int) {
	pl, pr := params.PortPlacement(rows, trd)
	dl, dr := pl-r-off, pr-r-off
	if r <= rows-int(trd) && (r < int(trd)-1 || abs(dl) <= abs(dr)) {
		return Left, dl
	}
	return Right, dr
}

// Align shifts the wire so data row r sits under the given port and
// returns the number of single-domain shift steps performed.
func (w *Nanowire) Align(r int, s Side) (steps int, err error) {
	d := w.AlignSteps(r, s)
	if err := w.Shift(d); err != nil {
		return 0, err
	}
	return abs(d), nil
}

// ReadPort reads the domain under the port (a conventional access-point
// read through the MTJ, Fig. 1).
func (w *Nanowire) ReadPort(s Side) Bit {
	return w.domains[w.port(s)]
}

// WritePort writes the domain under the port (shift-based write [27]).
func (w *Nanowire) WritePort(s Side, b Bit) {
	w.domains[w.port(s)] = b & 1
}

// TR performs a transverse read over the window between the two ports,
// inclusive, returning the number of '1' domains (§II-D). The result
// carries no position information, exactly like the physical aggregate
// resistance measurement.
func (w *Nanowire) TR() int {
	n := 0
	for p := w.portL; p <= w.portR; p++ {
		n += int(w.domains[p])
	}
	return n
}

// TW performs a transverse write (§IV-B, Fig. 9): the bit is written
// under the left port while the window contents shift one position toward
// the right port, whose previous domain is forced out to ground. Domains
// outside the window are not disturbed (segmented shifting).
func (w *Nanowire) TW(b Bit) {
	copy(w.domains[w.portL+1:w.portR+1], w.domains[w.portL:w.portR])
	w.domains[w.portL] = b & 1
}

// WindowRow returns the data-row index currently aligned with window
// position i (0 = under the left port), or -1 for an overhead domain.
func (w *Nanowire) WindowRow(i int) int {
	if i < 0 || i >= int(w.trd) {
		panic(fmt.Sprintf("device: window index %d out of range [0,%d)", i, int(w.trd)))
	}
	r := w.portL + i - w.start
	if r < 0 || r >= w.rows {
		return -1
	}
	return r
}

// PokeWindow overwrites the physical domain at window position i
// (0 = under the left port) without modelling an access. It supports
// maintaining the Fig. 7 pre-populated padding constants.
func (w *Nanowire) PokeWindow(i int, b Bit) {
	if i < 0 || i >= int(w.trd) {
		panic(fmt.Sprintf("device: window index %d out of range [0,%d)", i, int(w.trd)))
	}
	w.domains[w.portL+i] = b & 1
}

// PeekWindowBit returns the domain at window position i without
// modelling an access (for result extraction and tests).
func (w *Nanowire) PeekWindowBit(i int) Bit {
	if i < 0 || i >= int(w.trd) {
		panic(fmt.Sprintf("device: window index %d out of range [0,%d)", i, int(w.trd)))
	}
	return w.domains[w.portL+i]
}

// Snapshot returns a copy of the data rows in row order (for tests).
func (w *Nanowire) Snapshot() []Bit {
	out := make([]Bit, w.rows)
	copy(out, w.domains[w.start:w.start+w.rows])
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
