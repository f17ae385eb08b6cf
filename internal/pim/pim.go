// Package pim implements the CORUSCANT processing-in-memory operations on
// a PIM-enabled domain-block cluster: multi-operand bulk-bitwise logic,
// multi-operand addition with the C/C' carry chain (Fig. 6), the 7→3
// carry-save reduction, two-operand and constant multiplication (§III-D),
// the transverse-write-based max function and ReLU (§IV-B/C), and
// N-modular redundancy voting (§III-F).
//
// Every operation runs functionally on the bit-level DBC model — results
// are exact and are property-tested against integer arithmetic — while a
// trace.Tracer counts the device primitives from which cycle latency and
// energy derive. Cycle-count anchors from the paper (§V-B): an 8-bit
// five-operand add takes 10 cycles of operand placement plus 16 cycles of
// per-bit TR+write = 26 cycles; one 7→3 reduction takes 4 cycles.
package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Unit is one PIM-enabled DBC together with its sensing and PIM logic,
// executing CORUSCANT operations.
type Unit struct {
	D   *dbc.DBC
	cfg params.Config
	tr  *trace.Tracer
	rec *telemetry.Recorder
	src telemetry.Source

	// lp is the scratch destination for transverse reads: valid only
	// until the next TR, so every consumer copies what it keeps.
	lp dbc.LevelPlanes

	// scratch pools the hot-loop row and word buffers; see arena. Like
	// the DBC it fronts, a Unit is single-threaded — concurrent callers
	// get one Unit each (memory.Memory shards per DBC).
	scratch arena
}

// NewUnit builds a PIM unit for the given configuration.
func NewUnit(cfg params.Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := dbc.New(cfg.Geometry.TrackWidth, cfg.Geometry.RowsPerDBC, cfg.TRD)
	if err != nil {
		return nil, err
	}
	u := &Unit{D: d, cfg: cfg, tr: &trace.Tracer{}, lp: dbc.NewLevelPlanes(cfg.Geometry.TrackWidth)}
	d.SetTracer(u.tr)
	return u, nil
}

// MustNewUnit is NewUnit for configurations known to be valid.
func MustNewUnit(cfg params.Config) *Unit {
	u, err := NewUnit(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Config returns the unit's configuration.
func (u *Unit) Config() params.Config { return u.cfg }

// Width returns the DBC track width (bits per row).
func (u *Unit) Width() int { return u.D.Width() }

// TRD returns the unit's transverse-read distance.
func (u *Unit) TRD() params.TRD { return u.cfg.TRD }

// Tracer exposes the unit's primitive-op accounting.
func (u *Unit) Tracer() *trace.Tracer { return u.tr }

// SetTracer directs subsequent accounting to t (nil disables): both the
// steps its DBC traces and the steps the unit charges itself (chargeStep,
// the multiplier's predicated copies and reductions, ReLU's refresh).
func (u *Unit) SetTracer(t *trace.Tracer) {
	u.tr = t
	u.D.SetTracer(t)
}

// SetTelemetry attaches a telemetry recorder to the unit and its DBC
// (nil disables); src tags the unit's events and names its track in the
// Chrome trace export.
func (u *Unit) SetTelemetry(rec *telemetry.Recorder, src telemetry.Source) {
	u.rec, u.src = rec, src
	u.D.SetTelemetry(rec, src)
}

// Recorder returns the attached telemetry recorder (possibly nil).
func (u *Unit) Recorder() *telemetry.Recorder { return u.rec }

// TelemetrySource returns the source label the unit's events carry.
func (u *Unit) TelemetrySource() telemetry.Source { return u.src }

// Span opens a named telemetry span on the unit's track and returns its
// closer, for the `defer u.Span("cnn-binary")()` idiom of workloads
// built on the unit. Every public PIM operation wraps itself in a span
// too, opened with u.rec.Begin and closed by a deferred u.rec.End so
// the hot path allocates no closer; workload-level spans nest around
// operation spans, which nest around primitive steps. With no recorder
// attached the returned closer is a shared no-op.
func (u *Unit) Span(name string) func() { return u.rec.Span(u.src, name) }

// Stats returns the accumulated primitive counts.
func (u *Unit) Stats() trace.Stats { return u.tr.Stats() }

// ResetStats clears the accumulated counters.
func (u *Unit) ResetStats() { u.tr.Reset() }

// Cost converts the accumulated trace into a latency/energy cost.
func (u *Unit) Cost() trace.Cost {
	return trace.OfStats(u.tr.Stats(), u.cfg.Energy, u.cfg.TRD)
}

// maxAddOperands returns the operand limit for multi-operand addition.
func (u *Unit) maxAddOperands() int { return u.cfg.TRD.MaxAddOperands() }

// checkBlocksize validates a cpim blocksize argument.
func (u *Unit) checkBlocksize(b int) error {
	if !params.ValidBlockSize(b) {
		return fmt.Errorf("pim: invalid blocksize %d (want one of %v)", b, params.BlockSizes)
	}
	if b > u.D.Width() {
		return fmt.Errorf("pim: blocksize %d exceeds track width %d", b, u.D.Width())
	}
	return nil
}

// recenter returns the DBC to its rest alignment with traced shifts, so
// the following operation has full shift headroom. Fresh units are
// already at rest and pay nothing.
func (u *Unit) recenter() error {
	return u.D.Shift(-u.D.Offset())
}

// placeWindow loads the operand rows into the PIM window through the left
// access port: each operand costs one write step plus one shift step (the
// paper's "shifts and writes the words between the two heads", 10 cycles
// for five operands). With finalShift, operand i (0-based) ends at window
// position k-i, leaving position 0 free for the S/C' slot of the carry
// chain; without it, the last operand stays under the left port (the
// TRD=3 layout, where the sum overwrites an operand slot), costing 2k−1
// cycles.
//
// The pad constant models the Fig. 7 pre-populated padding rows in and
// adjacent to the window; restoring them is untraced, as the paper
// maintains them as preset constants.
func (u *Unit) placeWindow(rows []dbc.Row, pad uint8, finalShift bool) error {
	trd := int(u.cfg.TRD)
	if len(rows) > trd {
		return fmt.Errorf("pim: %d operands exceed window of %d: %w", len(rows), trd, params.ErrBadTRD)
	}
	if err := u.recenter(); err != nil {
		return err
	}
	if len(rows) == trd {
		// A full window leaves no slot to shift into; the last operand
		// stays under the left port.
		finalShift = false
	}
	for i := 0; i < trd; i++ {
		u.D.PokeWindowConst(i, pad)
	}
	for i, r := range rows {
		u.D.WritePort(dbcLeft, r)
		if !finalShift && i == len(rows)-1 {
			break
		}
		if err := u.D.Shift(1); err != nil {
			return err
		}
		// The domain shifted in under the left port comes from the
		// pre-populated padding region.
		u.D.PokeWindowConst(0, pad)
	}
	return nil
}

// chargeStep charges one device control step of the given kind across
// width wires to both cost sinks: the primitive tracer (latency/energy
// derivation) and the telemetry recorder (cycle clock). Operations whose
// functional result is computed word-parallel use it to account the
// device steps the hardware would issue, exactly as Multiply charges its
// predicated copy/shift pairs.
func (u *Unit) chargeStep(op telemetry.Op, width int) {
	switch op {
	case telemetry.OpShift:
		u.tr.Shift(width)
	case telemetry.OpTR:
		u.tr.TR(width)
	case telemetry.OpTW:
		u.tr.TW(width)
	case telemetry.OpRead:
		u.tr.Read(width)
	case telemetry.OpWrite:
		u.tr.Write(width)
	case telemetry.OpCopy:
		u.tr.Copy(width)
	}
	u.rec.Step(u.src, op, width)
}

// trAll performs a traced whole-DBC transverse read into the unit's
// scratch planes. The returned planes alias the scratch buffer and are
// valid only until the next transverse read; consumers copy what they
// keep.
func (u *Unit) trAll() dbc.LevelPlanes {
	u.D.TRAllPlanesInto(&u.lp)
	return u.lp
}
