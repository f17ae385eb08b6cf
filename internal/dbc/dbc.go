// Package dbc models a CORUSCANT domain-block cluster (DBC): X parallel
// DWM nanowires of Y data rows that shift in lockstep and share local
// sensing circuitry and write drivers (Fig. 2(d)). PIM-enabled DBCs add a
// second access port per wire spaced a transverse-read distance away, a
// multi-level sense amplifier, and the PIM logic block of Fig. 4.
//
// The cluster state lives in a word-packed device.PlaneArray — one bit
// plane per physical domain row, 64 wires per word — so shifts are index
// bookkeeping and row transfers, transverse reads and bulk-bitwise
// evaluation run 64 wires per machine instruction. A transverse read has
// one form: TRAllPlanesInto senses every wire and TRMaskedInto a masked
// subset, both into bit-sliced LevelPlanes whose bits are the S, C and
// C' outputs. device.Nanowire is the single-wire reference model the
// packed engine, both sensing calls included, is differentially tested
// against (refdbc_test.go).
//
// All state-changing operations are charged: each control step makes one
// charge to the DBC's ledger — a trace.Tracer (standalone DBCs and PIM
// units), a telemetry.Recorder (memory.Memory's clusters), or both — from
// which cycle latency and energy derive. The recorder also timestamps
// the step as an event (injected faults emit additional tagged events).
package dbc

import (
	"fmt"
	"math/bits"

	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DBC is a PIM-enabled domain-block cluster.
type DBC struct {
	width int // X: nanowires (bits per row)
	words int // ceil(width/64)
	rows  int // Y: data rows
	trd   params.TRD

	pa     *device.PlaneArray
	tracer *trace.Tracer
	rec    *telemetry.Recorder
	src    telemetry.Source
	inj    *device.FaultInjector
}

// New returns a DBC of width nanowires × rows data domains with a PIM
// window of trd domains. All domains start at zero.
func New(width, rows int, trd params.TRD) (*DBC, error) {
	if width <= 0 {
		return nil, fmt.Errorf("dbc: non-positive width %d", width)
	}
	pa, err := device.NewPlaneArray(width, rows, trd)
	if err != nil {
		return nil, err
	}
	return &DBC{width: width, words: pa.Words(), rows: rows, trd: trd, pa: pa}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(width, rows int, trd params.TRD) *DBC {
	d, err := New(width, rows, trd)
	if err != nil {
		panic(err)
	}
	return d
}

// Width returns X, the number of nanowires (bits per row).
func (d *DBC) Width() int { return d.width }

// Rows returns Y, the number of data rows.
func (d *DBC) Rows() int { return d.rows }

// TRD returns the PIM window length.
func (d *DBC) TRD() params.TRD { return d.trd }

// SetTracer directs subsequent operation accounting to t (nil detaches
// it; an attached recorder keeps counting).
func (d *DBC) SetTracer(t *trace.Tracer) { d.tracer = t }

// Tracer returns the current tracer (possibly nil).
func (d *DBC) Tracer() *trace.Tracer { return d.tracer }

// SetTelemetry attaches a telemetry recorder (nil disables); src tags
// this DBC's events — memory.Memory uses the DBC coordinates.
func (d *DBC) SetTelemetry(rec *telemetry.Recorder, src telemetry.Source) {
	d.rec, d.src = rec, src
}

// Recorder returns the attached telemetry recorder (possibly nil).
func (d *DBC) Recorder() *telemetry.Recorder { return d.rec }

// Source returns the DBC's telemetry source tag.
func (d *DBC) Source() telemetry.Source { return d.src }

// SetFaultInjector enables fault injection on TRs and shifts.
func (d *DBC) SetFaultInjector(f *device.FaultInjector) { d.inj = f }

// Charge charges one control step of kind op touching wires nanowires
// (or bits) to whichever of the tracer and the recorder is attached:
// the one call a step makes. PIM operations that compute their result
// word-parallel charge through it the steps the hardware would issue.
func (d *DBC) Charge(op telemetry.Op, wires int) {
	d.tracer.Charge(trace.Kind(op), wires)
	d.rec.Step(d.src, op, wires)
}

// Stall charges n idle cycles (recovery backoff) to the tracer and to
// the recorder under src, the component that ordered the wait.
func (d *DBC) Stall(src telemetry.Source, n int) {
	for i := 0; i < n; i++ {
		d.tracer.Charge(trace.Stall, 0)
		d.rec.Step(src, telemetry.OpStall, 0)
	}
}

// chargeShift charges one shift step, attributed with the head offset
// after it. The explicit nil guard keeps the disabled path at one
// branch: Offset() is only computed when somebody listens.
func (d *DBC) chargeShift() {
	d.tracer.Charge(trace.Shift, d.width)
	if d.rec != nil {
		d.rec.StepShift(d.src, d.width, d.pa.Offset())
	}
}

// chargePort charges one access-port step at port s, attributed with
// the data row under it.
func (d *DBC) chargePort(op telemetry.Op, wires int, s device.Side) {
	d.tracer.Charge(trace.Kind(op), wires)
	if d.rec != nil {
		d.rec.StepPort(d.src, op, wires, d.pa.RowAtPort(s), portOf(s))
	}
}

// checkRow validates a row argument width.
func (d *DBC) checkRow(r Row) {
	if r.N != d.width {
		panic(fmt.Sprintf("dbc: row length %d, want %d", r.N, d.width))
	}
}

// LoadRow initializes data row r with bits, bypassing the ports. It
// models pre-existing memory contents (and Fig. 7 pre-populated padding)
// and is not traced. The row is copied; the caller keeps ownership.
func (d *DBC) LoadRow(r int, bits Row) {
	d.checkRow(bits)
	d.pa.SetRow(r, bits.Words)
}

// PeekRow returns an owned copy of data row r without modelling an
// access. Callers may mutate the result freely; domain state is never
// aliased.
func (d *DBC) PeekRow(r int) Row {
	out := NewRow(d.width)
	d.pa.RowWords(r, out.Words)
	return out
}

// Offset returns the current shift displacement of the lockstepped wires.
func (d *DBC) Offset() int { return d.pa.Offset() }

// OffsetBounds returns the legal excursion of Offset.
func (d *DBC) OffsetBounds() (lo, hi int) { return d.pa.OffsetBounds() }

// Shift moves all nanowires by steps positions (positive = right), one
// traced control step per position. With a fault injector attached, each
// step may over- or under-shoot; CORUSCANT assumes orthogonal alignment
// fault tolerance (§II-A), so injected shift errors model its absence.
func (d *DBC) Shift(steps int) error {
	dir := 1
	if steps < 0 {
		dir, steps = -1, -steps
	}
	for i := 0; i < steps; i++ {
		n := 1
		if e := d.inj.ShiftError(); e != 0 {
			n += e * dir // over/under shoot relative to intended direction
			detail := "shift-overshoot"
			if e < 0 {
				detail = "shift-undershoot"
			}
			d.rec.Fault(d.src, detail, d.width)
		}
		for j := 0; j < n; j++ {
			if err := d.shiftOne(dir); err != nil {
				return err
			}
		}
		d.chargeShift()
	}
	return nil
}

func (d *DBC) shiftOne(dir int) error {
	if dir > 0 {
		return d.pa.ShiftRight()
	}
	return d.pa.ShiftLeft()
}

// Align shifts the DBC so data row r is under the given port, tracing
// each shift step. It returns the number of steps taken.
func (d *DBC) Align(r int, s device.Side) (int, error) {
	steps := d.pa.AlignSteps(r, s)
	if err := d.Shift(steps); err != nil {
		return 0, err
	}
	if steps < 0 {
		steps = -steps
	}
	return steps, nil
}

// AlignNearest shifts row r under its nearest port and returns the port
// used and the steps taken.
func (d *DBC) AlignNearest(r int) (device.Side, int, error) {
	side, _ := d.pa.NearestPort(r)
	steps, err := d.Align(r, side)
	return side, steps, err
}

// RowAtPort returns the data row currently under the port, or -1.
func (d *DBC) RowAtPort(s device.Side) int { return d.pa.RowAtPort(s) }

// ReadPort reads the full row under the port (one traced step). The
// returned row is an owned copy.
func (d *DBC) ReadPort(s device.Side) Row {
	out := NewRow(d.width)
	d.ReadPortInto(s, out)
	return out
}

// ReadPortInto is ReadPort writing into a caller-owned row of the DBC's
// width, for hot paths that reuse a scratch row across reads instead of
// allocating per read.
func (d *DBC) ReadPortInto(s device.Side, out Row) {
	d.checkRow(out)
	d.pa.ReadPort(s, out.Words)
	d.chargePort(telemetry.OpRead, d.width, s)
}

// portOf maps a device port side to the telemetry Pos encoding.
func portOf(s device.Side) int {
	if s == device.Left {
		return telemetry.PortLeft
	}
	return telemetry.PortRight
}

// WritePort writes the full row under the port (one traced step).
func (d *DBC) WritePort(s device.Side, bits Row) {
	d.checkRow(bits)
	d.pa.WritePort(s, bits.Words)
	d.chargePort(telemetry.OpWrite, d.width, s)
}

// WriteRow aligns data row r under its nearest port and writes bits
// through that port. Unlike WritePort it reports a row of the wrong
// width as an error instead of panicking, for callers whose rows come
// from outside.
func (d *DBC) WriteRow(r int, bits Row) error {
	if bits.N != d.width {
		return fmt.Errorf("dbc: row width %d, want %d", bits.N, d.width)
	}
	side, _, err := d.AlignNearest(r)
	if err != nil {
		return err
	}
	d.WritePort(side, bits)
	return nil
}

// LevelPlanes is the bit-sliced output of a transverse read, the one
// form every sensing consumer reads: the sensed level of wire w is the
// 3-bit number c2c1c0 read at bit position w%64 of word w/64 of the
// three counter planes, so C0, C1 and C2 are the S, C and C' outputs of
// Fig. 4(b) for 64 wires per word. Word-parallel consumers (EvalPlanes,
// the carry chain, the carry-save reduction) combine the planes
// directly.
type LevelPlanes struct {
	C0, C1, C2 []uint64
	N          int
}

// Level returns the sensed level of wire w.
func (lp LevelPlanes) Level(w int) int {
	word, bit := w>>6, uint(w&63)
	return int(lp.C0[word]>>bit&1) | int(lp.C1[word]>>bit&1)<<1 | int(lp.C2[word]>>bit&1)<<2
}

// NewLevelPlanes returns zeroed level planes for a DBC of the given
// width, suitable as the destination of TRAllPlanesInto/TRMaskedInto.
func NewLevelPlanes(width int) LevelPlanes {
	words := (width + 63) / 64
	backing := make([]uint64, 3*words)
	return LevelPlanes{
		C0: backing[:words:words],
		C1: backing[words : 2*words : 2*words],
		C2: backing[2*words:],
		N:  width,
	}
}

// TRAllPlanesInto performs a transverse read on every nanowire in one
// traced control step, writing the level planes into caller-owned
// planes (sized by NewLevelPlanes) that are reused across reads. With a
// fault injector attached, TRFaultMasks draws one perturbation per wire
// in wire order.
func (d *DBC) TRAllPlanesInto(lp *LevelPlanes) {
	d.pa.TRPlanes(lp.C0, lp.C1, lp.C2)
	if flip, up, any := d.inj.TRFaultMasks(d.width); any {
		device.PerturbTRPlanes(lp.C0, lp.C1, lp.C2, flip, up, int(d.trd))
		d.rec.Fault(d.src, "tr-level", device.OnesCount(flip))
	}
	d.Charge(telemetry.OpTR, d.width)
}

// TRMaskedInto performs a transverse read on the bitlines selected by
// mask (bit w%64 of word w/64) in one traced control step — the memory
// controller masks the other bitlines (§III-E) — writing the level
// planes into caller-owned planes (sized by NewLevelPlanes). Unselected
// lanes read zero. wires must be the number of selected bitlines (trace
// accounting). With a fault injector attached, each selected wire draws
// one PerturbTR in increasing wire order and no draw happens at a zero
// TR rate, so a kernel's fault stream depends only on which wires it
// senses. The Fig. 6 carry chain, its per-step vote and the max
// tournament all sense through it.
func (d *DBC) TRMaskedInto(lp *LevelPlanes, mask []uint64, wires int) {
	d.pa.TRPlanes(lp.C0, lp.C1, lp.C2)
	for i := range lp.C0 {
		lp.C0[i] &= mask[i]
		lp.C1[i] &= mask[i]
		lp.C2[i] &= mask[i]
	}
	if d.inj != nil && d.inj.TRProb != 0 {
		for i, m := range mask {
			for m != 0 {
				w := i<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				lvl := lp.Level(w)
				if nl := d.inj.PerturbTR(lvl, int(d.trd)); nl != lvl {
					word, bit := w>>6, uint(w&63)
					clr := ^(uint64(1) << bit)
					lp.C0[word] = lp.C0[word]&clr | uint64(nl&1)<<bit
					lp.C1[word] = lp.C1[word]&clr | uint64(nl>>1&1)<<bit
					lp.C2[word] = lp.C2[word]&clr | uint64(nl>>2&1)<<bit
					d.rec.Fault(d.src, "tr-level", 1)
				}
			}
		}
	}
	d.Charge(telemetry.OpTR, wires)
}

// WriteScatterPlanes performs, in one traced control step, word-parallel
// masked writes to both access ports: src bits on wires selected by the
// matching mask overwrite that port's domain, other wires are untouched.
// This is the Fig. 6 carry chain's scatter, where S, C and C' land on
// the left port of wire k, the right port of wire k+1 and the left port
// of wire k+2 at once. count must be the number of individual bits
// written (trace accounting). Nil masks skip that port.
func (d *DBC) WriteScatterPlanes(left, leftMask, right, rightMask []uint64, count int) {
	d.pa.WritePortMasked(device.Left, left, leftMask)
	d.pa.WritePortMasked(device.Right, right, rightMask)
	d.tracer.Charge(trace.Write, count)
	if d.rec == nil {
		return
	}
	// Wear attribution: the touched rows are whatever sits under the
	// written ports. With both ports written the event carries the
	// left-port row and PortBoth — the right-port row is TRD-1 rows
	// further, which the profiler reconstructs from the geometry.
	switch {
	case leftMask != nil && rightMask != nil:
		d.rec.StepPort(d.src, telemetry.OpWrite, count, d.pa.RowAtPort(device.Left), telemetry.PortBoth)
	case rightMask != nil:
		d.rec.StepPort(d.src, telemetry.OpWrite, count, d.pa.RowAtPort(device.Right), telemetry.PortRight)
	default:
		// Left-only, or a scatter with no mask that still costs the
		// control step: attribute to the left port like the carry chain.
		d.rec.StepPort(d.src, telemetry.OpWrite, count, d.pa.RowAtPort(device.Left), telemetry.PortLeft)
	}
}

// CopyPort lands a row under the port through the shifted read/write
// path of §III-D2 (one traced copy step): the multiplier's partial
// products enter the TR window this way.
func (d *DBC) CopyPort(s device.Side, bits Row) {
	d.checkRow(bits)
	d.pa.WritePort(s, bits.Words)
	d.chargePort(telemetry.OpCopy, d.width, s)
}

// TW performs a transverse write of a full row (§IV-B): on every wire the
// bit is written under the left port while the window contents shift one
// position right, ejecting the domain under the right port. One traced
// control step.
func (d *DBC) TW(bits Row) {
	d.checkRow(bits)
	d.pa.TW(bits.Words)
	d.chargePort(telemetry.OpTW, d.width, device.Left)
}

// PokeWindow overwrites the domain at window position i on every wire
// without tracing. It models Fig. 7 pre-populated padding constants that
// are maintained outside the traced operation, and places rows whose
// placement a kernel prices itself: the rows of the multiplier's
// carry-save rounds (charged as its shifted copies and rotate-ins) and
// the subtrahend the trial subtraction's NOT senses (a pass priced at
// its TR and write alone).
func (d *DBC) PokeWindow(i int, bits Row) {
	d.checkRow(bits)
	d.pa.PokeWindow(i, bits.Words)
}

// PokeWindowConst fills window position i with a constant on every wire,
// without tracing (Fig. 7 padding).
func (d *DBC) PokeWindowConst(i int, bit uint8) {
	d.pa.PokeWindowFill(i, bit)
}

// PeekWindow returns an owned copy of the row at window position i
// without tracing.
func (d *DBC) PeekWindow(i int) Row {
	out := NewRow(d.width)
	d.pa.PeekWindow(i, out.Words)
	return out
}
