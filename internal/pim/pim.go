// Package pim implements the CORUSCANT processing-in-memory operations on
// a PIM-enabled domain-block cluster: multi-operand bulk-bitwise logic,
// multi-operand addition with the C/C' carry chain (Fig. 6), the 7→3
// carry-save reduction, two-operand and constant multiplication (§III-D),
// the transverse-write-based max function and ReLU (§IV-B/C), a
// two-candidate max on the carry chain (MaxSelect), and N-modular
// redundancy voting (§III-F).
//
// Every operation runs functionally on the bit-level DBC model — results
// are exact and are property-tested against integer arithmetic — while
// each device step is charged once to the DBC's ledger: the unit's own
// trace.Tracer, and the telemetry.Recorder when one is attached (a
// memory.Memory strips the tracer and counts on its recorder alone).
// Cycle latency and energy derive from those counts. Cycle-count
// anchors from the paper (§V-B): an 8-bit
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
	rec *telemetry.Recorder
	src telemetry.Source

	// lp is the scratch destination for transverse reads: valid only
	// until the next TR, so every consumer copies what it keeps.
	lp dbc.LevelPlanes

	// scratch pools the hot-loop row and word buffers; see arena. Like
	// the DBC it fronts, a Unit is single-threaded — concurrent callers
	// get one Unit each (memory.Memory shards per DBC).
	scratch arena

	// rightEntry records the port the last placeWindow entered through,
	// for rewriteLast.
	rightEntry bool
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
	d.SetTracer(&trace.Tracer{})
	return &Unit{D: d, cfg: cfg, lp: dbc.NewLevelPlanes(cfg.Geometry.TrackWidth)}, nil
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

// Tracer exposes the unit's primitive-op accounting: its DBC's tracer,
// which also counts the steps the unit charges without running them on
// the DBC model (the multipliers' read, shifted copies and rotate-ins,
// the divider's lateral shifts and predicated writes, LogicalShift,
// the vote's logic step, ReLU).
// Nil once a memory has detached it.
func (u *Unit) Tracer() *trace.Tracer { return u.D.Tracer() }

// SetTelemetry attaches a telemetry recorder to the unit and its DBC
// (nil disables); src tags the unit's events and names its track in the
// Chrome trace export.
func (u *Unit) SetTelemetry(rec *telemetry.Recorder, src telemetry.Source) {
	u.rec, u.src = rec, src
	u.D.SetTelemetry(rec, src)
}

// Recorder returns the attached telemetry recorder (possibly nil).
func (u *Unit) Recorder() *telemetry.Recorder { return u.rec }

// Span opens a named telemetry span on the unit's track and returns its
// closer, for the `defer u.Span("cnn-binary")()` idiom of workloads
// built on the unit. Every public PIM operation wraps itself in a span
// too, opened with u.rec.Begin and closed by a deferred u.rec.End so
// the hot path allocates no closer; workload-level spans nest around
// operation spans, which nest around primitive steps. With no recorder
// attached the returned closer is a shared no-op.
func (u *Unit) Span(name string) func() { return u.rec.Span(u.src, name) }

// Stats returns the accumulated primitive counts.
func (u *Unit) Stats() trace.Stats { return u.Tracer().Stats() }

// ResetStats clears the accumulated counters.
func (u *Unit) ResetStats() { u.Tracer().Reset() }

// Cost converts the accumulated trace into a latency/energy cost.
func (u *Unit) Cost() trace.Cost {
	return trace.OfStats(u.Stats(), u.cfg.Energy, u.cfg.TRD)
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

// placement says how placeWindow lays operand rows out in the window.
type placement struct {
	pad        uint8 // Fig. 7 padding constant of the slots no operand takes
	finalShift bool  // left entry: shift the last operand in too, freeing the left port's slot
	copies     int   // leading rows that arrive as §III-D2 shifted copies, not port writes
	atRest     bool  // walk the head back to rest and enter left, wherever it stands
}

// placeWindow loads the operand rows into the PIM window through one of
// its two access ports: each operand costs one write step plus one
// shift step carrying it inward (the paper's "shifts and writes the
// words between the two heads", 10 cycles for five operands). The port
// is the one on the head's side, so no kernel pays to walk the head
// back to rest while it stands within TRD of it:
//   - head right of rest, within TRD: the operands enter through the
//     right port, stepping left;
//   - head at or left of rest, within TRD: they enter through the left
//     port, stepping right from where the head stands;
//   - head more than TRD from rest, or p.atRest: traced shifts walk the
//     head back to rest first, and the operands enter left. The TW
//     tournament (MaxTR and its ablation), Reduce's write-back and the
//     TRD=3 two-placement subtraction choreograph that left layout.
//
// Entered left with p.finalShift, operand i (0-based) of k ends at
// window slot k−i, leaving slot 0 free for the S/C' slot of the carry
// chain; without it, the last operand stays under the left port (the
// TRD=3 layout, where the sum overwrites an operand slot), costing
// 2k−1 cycles. Entered right, the placement mirrors with the final
// shift always taken: operand i ends at slot TRD−1−k+i and the right
// port's slot stays free for the chain's carry C, so TRD=3's right side
// costs one shift more than its left. A full window leaves no slot to
// shift into either way: the last operand stays under its port. The
// first p.copies rows arrive as the multiplier's shifted copies, one
// copy step each instead of a write.
//
// The pad constant models the Fig. 7 pre-populated padding rows in and
// adjacent to the window; restoring them is untraced, as the paper
// maintains them as preset constants.
func (u *Unit) placeWindow(rows []dbc.Row, p placement) error {
	trd := int(u.cfg.TRD)
	if len(rows) > trd {
		return fmt.Errorf("pim: %d operands exceed window of %d: %w", len(rows), trd, params.ErrBadTRD)
	}
	e, err := u.nearRest(p.atRest)
	if err != nil {
		return err
	}
	u.rightEntry = e > 0
	side, slot, step, final := dbcLeft, 0, 1, p.finalShift
	if u.rightEntry {
		side, slot, step, final = dbcRight, trd-1, -1, true
	}
	final = final && len(rows) < trd // a full window has no slot to shift into
	for i := 0; i < trd; i++ {
		u.D.PokeWindowConst(i, p.pad)
	}
	for i, r := range rows {
		if i < p.copies {
			u.D.CopyPort(side, r)
		} else {
			u.D.WritePort(side, r)
		}
		if !final && i == len(rows)-1 {
			break
		}
		if err := u.D.Shift(step); err != nil {
			return err
		}
		// The domain shifted in under the entry port comes from the
		// pre-populated padding region.
		u.D.PokeWindowConst(slot, p.pad)
	}
	return nil
}

// nearRest brings the head within TRD of rest before a kernel touches
// the window, so the window's domains stay inside the kernel band: a
// head further out, or any head when atRest asks for rest, walks back
// with traced shifts. It returns the offset the kernel enters from.
func (u *Unit) nearRest(atRest bool) (int, error) {
	trd := int(u.cfg.TRD)
	e := u.D.Offset()
	if atRest || e < -trd || e > trd {
		return 0, u.D.Shift(-e)
	}
	return e, nil
}

// pokeWindow puts rows into the window untraced, rows[i] in slot i and
// the free slots zeroed, for kernels that price the placement
// themselves. The head first comes within TRD of rest (nearRest), so
// only domains of the kernel band are written.
func (u *Unit) pokeWindow(rows []dbc.Row) error {
	if _, err := u.nearRest(false); err != nil {
		return err
	}
	for i := 0; i < int(u.cfg.TRD); i++ {
		if i < len(rows) {
			u.D.PokeWindow(i, rows[i])
		} else {
			u.D.PokeWindowConst(i, 0)
		}
	}
	return nil
}

// trAll performs a traced whole-DBC transverse read into the unit's
// scratch planes. The returned planes alias the scratch buffer and are
// valid only until the next transverse read; consumers copy what they
// keep.
func (u *Unit) trAll() dbc.LevelPlanes {
	u.D.TRAllPlanesInto(&u.lp)
	return u.lp
}
