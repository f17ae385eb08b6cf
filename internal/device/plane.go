package device

import (
	"fmt"
	"math/bits"

	"repro/internal/params"
)

// PlaneArray stores the lockstepped domain state of a whole DBC — X
// nanowires of identical geometry shifting under shared control (Fig.
// 2(d)) — as horizontal bit planes instead of X independent Nanowire
// objects. Plane p holds physical domain row p of every wire, packed 64
// wires per machine word: wire w is bit w%64 of word w/64. One shift,
// port access or transverse read therefore touches ceil(X/64) words per
// plane instead of X scalar domains, which is what lets the simulator
// run 64 wires per instruction.
//
// The geometry (port positions, overhead domains, legal shift excursion)
// is exactly that of Nanowire, which remains the single-wire reference
// model the packed engine is differentially tested against.
type PlaneArray struct {
	wires int        // X: nanowires (bits per plane)
	words int        // ceil(wires/64)
	rows  int        // Y: data domains per wire
	trd   params.TRD // window length between the ports, inclusive
	total int        // physical domains per wire including overhead

	portL, portR int // physical plane indices of the access ports

	start int // physical plane currently holding data row 0
	rest  int // start value at rest (zero offset), cached for Offset
	minS  int // smallest legal start
	maxS  int // largest legal start

	tail uint64 // valid-bit mask of the last word of every plane

	// buf is a ring of total planes: physical plane p lives at
	// buf[(origin+p)%total]. A lockstep shift is pure index bookkeeping —
	// origin moves and one vacated plane is zeroed — no data is copied.
	buf    [][]uint64
	origin int
}

// NewPlaneArray returns the packed domain state of wires nanowires of
// rows data rows each with a port window of trd domains. All domains
// start at zero.
func NewPlaneArray(wires, rows int, trd params.TRD) (*PlaneArray, error) {
	if wires <= 0 {
		return nil, fmt.Errorf("device: non-positive wire count %d", wires)
	}
	if !trd.Valid() {
		return nil, fmt.Errorf("device: invalid %v", trd)
	}
	if rows < int(trd) {
		return nil, fmt.Errorf("device: rows %d < TRD %d", rows, int(trd))
	}
	pl, pr := params.PortPlacement(rows, trd)
	leftOver := rows - 1 - pr // overhead on the left extremity
	rightOver := pl           // overhead on the right extremity
	total := rows + leftOver + rightOver
	words := (wires + 63) / 64
	pa := &PlaneArray{
		wires: wires,
		words: words,
		rows:  rows,
		trd:   trd,
		total: total,
		portL: pl + leftOver,
		portR: pr + leftOver,
		start: leftOver,
		rest:  leftOver,
		minS:  0,
		maxS:  leftOver + rightOver,
		tail:  tailMask(wires),
		buf:   make([][]uint64, total),
	}
	backing := make([]uint64, total*words)
	for p := range pa.buf {
		pa.buf[p] = backing[p*words : (p+1)*words : (p+1)*words]
	}
	return pa, nil
}

// tailMask returns the mask of valid bits in the last word of an n-bit
// plane (all ones when n is a multiple of 64).
func tailMask(n int) uint64 {
	if r := n % 64; r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

// Wires returns X, the number of nanowires.
func (pa *PlaneArray) Wires() int { return pa.wires }

// Words returns the number of 64-bit words per plane.
func (pa *PlaneArray) Words() int { return pa.words }

// Rows returns Y, the number of data rows.
func (pa *PlaneArray) Rows() int { return pa.rows }

// TRD returns the port window length.
func (pa *PlaneArray) TRD() params.TRD { return pa.trd }

// TotalDomains returns the physical wire length including overhead.
func (pa *PlaneArray) TotalDomains() int { return pa.total }

// plane returns the storage of physical plane p.
func (pa *PlaneArray) plane(p int) []uint64 {
	i := pa.origin + p
	if i >= pa.total {
		i -= pa.total
	}
	return pa.buf[i]
}

// Offset returns the current shift displacement of the lockstepped data
// region from its rest position (positive = right), as Nanowire.Offset.
// It is two loads and a subtract, cheap enough for the telemetry shift
// hook to call once per recorded shift step.
func (pa *PlaneArray) Offset() int {
	return pa.start - pa.rest
}

// OffsetBounds returns the legal excursion of Offset: the most negative
// and most positive displacements the overhead domains allow. The
// hardware profiler uses it to scale head-position occupancy rendering.
func (pa *PlaneArray) OffsetBounds() (lo, hi int) {
	return pa.minS - pa.rest, pa.maxS - pa.rest
}

// OffsetRange returns the legal head-offset excursion of a wire of the
// given geometry without building one: the OffsetBounds any
// PlaneArray/Nanowire of that shape would report. Consumers that only
// see the telemetry stream (the hardware profiler) use it to bound the
// head-position axis.
func OffsetRange(rows int, trd params.TRD) (lo, hi int) {
	pl, pr := params.PortPlacement(rows, trd)
	return -(rows - 1 - pr), pl
}

// checkRow panics on an out-of-range data row index.
func (pa *PlaneArray) checkRow(r int) {
	if r < 0 || r >= pa.rows {
		panic(fmt.Sprintf("device: row %d out of range [0,%d)", r, pa.rows))
	}
}

// SetRow overwrites data row r from src (words of packed wire bits),
// bypassing the access ports. Bits beyond the wire count are ignored.
func (pa *PlaneArray) SetRow(r int, src []uint64) {
	pa.checkRow(r)
	pa.storePlane(pa.plane(pa.start+r), src)
}

// FillRow fills data row r with a constant bit.
func (pa *PlaneArray) FillRow(r int, b Bit) {
	pa.checkRow(r)
	pa.fillPlane(pa.plane(pa.start+r), b)
}

// RowWords copies data row r into dst without modelling an access.
func (pa *PlaneArray) RowWords(r int, dst []uint64) {
	pa.checkRow(r)
	copy(dst, pa.plane(pa.start+r))
}

// SetRowBit overwrites the single domain of wire w in data row r.
func (pa *PlaneArray) SetRowBit(r, w int, b Bit) {
	pa.checkRow(r)
	setBit(pa.plane(pa.start+r), w, b)
}

// RowBit returns the domain of wire w in data row r.
func (pa *PlaneArray) RowBit(r, w int) Bit {
	pa.checkRow(r)
	return getBit(pa.plane(pa.start+r), w)
}

// storePlane copies src into dst, masking stray bits beyond the wire
// count so planes always hold a clean tail.
func (pa *PlaneArray) storePlane(dst, src []uint64) {
	n := copy(dst, src)
	for ; n < pa.words; n++ {
		dst[n] = 0
	}
	dst[pa.words-1] &= pa.tail
}

// fillPlane fills dst with a constant bit, respecting the tail mask.
func (pa *PlaneArray) fillPlane(dst []uint64, b Bit) {
	var v uint64
	if b&1 != 0 {
		v = ^uint64(0)
	}
	for i := range dst {
		dst[i] = v
	}
	dst[pa.words-1] &= pa.tail
}

func setBit(plane []uint64, w int, b Bit) {
	if b&1 != 0 {
		plane[w>>6] |= 1 << uint(w&63)
	} else {
		plane[w>>6] &^= 1 << uint(w&63)
	}
}

func getBit(plane []uint64, w int) Bit {
	return Bit(plane[w>>6]>>uint(w&63)) & 1
}

// ShiftRight moves every wire's domains one position toward the right
// extremity in lockstep: origin bookkeeping plus zeroing the single
// vacated plane — no plane data moves.
func (pa *PlaneArray) ShiftRight() error {
	if pa.start+1 > pa.maxS {
		return fmt.Errorf("device: shift right would push data off the wire (start=%d)", pa.start)
	}
	pa.origin--
	if pa.origin < 0 {
		pa.origin += pa.total
	}
	// The plane that fell off the right extremity becomes physical
	// plane 0, which shifts in cleared domains.
	zero(pa.buf[pa.origin])
	pa.start++
	return nil
}

// ShiftLeft moves every wire's domains one position toward the left
// extremity in lockstep.
func (pa *PlaneArray) ShiftLeft() error {
	if pa.start-1 < pa.minS {
		return fmt.Errorf("device: shift left would push data off the wire (start=%d)", pa.start)
	}
	// Physical plane 0 falls off the left extremity and becomes the new
	// rightmost plane, shifting in cleared domains.
	zero(pa.buf[pa.origin])
	pa.origin++
	if pa.origin >= pa.total {
		pa.origin -= pa.total
	}
	pa.start--
	return nil
}

func zero(ws []uint64) {
	for i := range ws {
		ws[i] = 0
	}
}

// port returns the physical plane index of the requested port.
func (pa *PlaneArray) port(s Side) int {
	if s == Left {
		return pa.portL
	}
	return pa.portR
}

// RowAtPort returns the data row currently aligned under the port, or -1.
func (pa *PlaneArray) RowAtPort(s Side) int {
	r := pa.port(s) - pa.start
	if r < 0 || r >= pa.rows {
		return -1
	}
	return r
}

// AlignSteps returns the signed shift (positive = right) aligning data
// row r under the given port.
func (pa *PlaneArray) AlignSteps(r int, s Side) int {
	pa.checkRow(r)
	return pa.port(s) - (pa.start + r)
}

// NearestPort returns the feasible port requiring the fewest shift steps
// to align row r, along with that signed step count (NearestPortAt at
// the array's offset).
func (pa *PlaneArray) NearestPort(r int) (Side, int) {
	pa.checkRow(r)
	return NearestPortAt(pa.rows, pa.trd, r, pa.start-pa.rest)
}

// ReadPort copies the plane under the port into dst (a conventional
// access-point read on every wire at once).
func (pa *PlaneArray) ReadPort(s Side, dst []uint64) {
	copy(dst, pa.plane(pa.port(s)))
}

// WritePort overwrites the plane under the port from src.
func (pa *PlaneArray) WritePort(s Side, src []uint64) {
	pa.storePlane(pa.plane(pa.port(s)), src)
}

// WritePortMasked writes src bits into the plane under the port on the
// wires selected by mask, leaving the other wires' domains untouched —
// the word-parallel form of a scatter of single-wire port writes (the
// Fig. 6 carry chain writes S/C/C' to periodic wire subsets). A nil
// mask is a no-op.
func (pa *PlaneArray) WritePortMasked(s Side, src, mask []uint64) {
	if mask == nil {
		return
	}
	pl := pa.plane(pa.port(s))
	for i := range pl {
		pl[i] = pl[i]&^mask[i] | src[i]&mask[i]
	}
}

// PortBit returns the domain of wire w under the port.
func (pa *PlaneArray) PortBit(s Side, w int) Bit {
	return getBit(pa.plane(pa.port(s)), w)
}

// SetPortBit writes the domain of wire w under the port (a single-wire
// port write inside a compound step, e.g. the Fig. 6 carry scatter).
func (pa *PlaneArray) SetPortBit(s Side, w int, b Bit) {
	setBit(pa.plane(pa.port(s)), w, b)
}

// TRPlanes accumulates the transverse-read levels of every wire over the
// TRD window into the bit-sliced counter planes c0/c1/c2 (level of wire
// w is the 3-bit number c2c1c0 at bit position w). One carry-save pass
// per window plane: 64 wires per word operation, no per-wire loop. A
// window of at most 7 domains always fits the 3-bit counter.
func (pa *PlaneArray) TRPlanes(c0, c1, c2 []uint64) {
	for i := 0; i < pa.words; i++ {
		c0[i], c1[i], c2[i] = 0, 0, 0
	}
	for p := pa.portL; p <= pa.portR; p++ {
		x := pa.plane(p)
		for i, w := range x {
			t0 := c0[i] & w
			c0[i] ^= w
			t1 := c1[i] & t0
			c1[i] ^= t0
			c2[i] |= t1
		}
	}
}

// TRWire returns the transverse-read level of a single wire: the number
// of '1' domains in its window.
func (pa *PlaneArray) TRWire(w int) int {
	word, bit := w>>6, uint(w&63)
	n := 0
	for p := pa.portL; p <= pa.portR; p++ {
		n += int(pa.plane(p)[word] >> bit & 1)
	}
	return n
}

// WindowOnes returns the total number of '1' domains inside the window
// across all wires — the aggregate the shared sense amplifiers see —
// via per-plane popcounts.
func (pa *PlaneArray) WindowOnes() int {
	n := 0
	for p := pa.portL; p <= pa.portR; p++ {
		for _, w := range pa.plane(p) {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// TW performs the transverse write of §IV-B on every wire at once: src
// is written under the left port while the window contents shift one
// position toward the right port (segmented shift — planes outside the
// window are not disturbed).
func (pa *PlaneArray) TW(src []uint64) {
	for p := pa.portR; p > pa.portL; p-- {
		copy(pa.plane(p), pa.plane(p-1))
	}
	pa.storePlane(pa.plane(pa.portL), src)
}

// checkWindow panics on an out-of-range window position.
func (pa *PlaneArray) checkWindow(i int) {
	if i < 0 || i >= int(pa.trd) {
		panic(fmt.Sprintf("device: window index %d out of range [0,%d)", i, int(pa.trd)))
	}
}

// WindowRow returns the data row currently aligned with window position
// i (0 = under the left port), or -1 for an overhead domain.
func (pa *PlaneArray) WindowRow(i int) int {
	pa.checkWindow(i)
	r := pa.portL + i - pa.start
	if r < 0 || r >= pa.rows {
		return -1
	}
	return r
}

// PokeWindow overwrites the plane at window position i from src without
// modelling an access (Fig. 7 pre-populated padding).
func (pa *PlaneArray) PokeWindow(i int, src []uint64) {
	pa.checkWindow(i)
	pa.storePlane(pa.plane(pa.portL+i), src)
}

// PokeWindowFill fills window position i with a constant bit.
func (pa *PlaneArray) PokeWindowFill(i int, b Bit) {
	pa.checkWindow(i)
	pa.fillPlane(pa.plane(pa.portL+i), b)
}

// PeekWindow copies the plane at window position i into dst.
func (pa *PlaneArray) PeekWindow(i int, dst []uint64) {
	pa.checkWindow(i)
	copy(dst, pa.plane(pa.portL+i))
}

// WireSnapshot returns wire w's data rows in row order (for tests and
// differential comparison against the Nanowire reference).
func (pa *PlaneArray) WireSnapshot(w int) []Bit {
	out := make([]Bit, pa.rows)
	for r := range out {
		out[r] = getBit(pa.plane(pa.start+r), w)
	}
	return out
}
