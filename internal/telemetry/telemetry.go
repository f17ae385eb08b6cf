// Package telemetry is the engine-wide observability layer: a
// cycle-accurate event stream over every device primitive the simulator
// executes, and the cost ledger behind it.
//
// Where internal/trace answers "how many primitives did this operation
// cost in total", telemetry answers "when did each one happen, on which
// DBC, and what did it cost" — the timeline the paper's per-primitive
// methodology implies but aggregate counters cannot show. A Recorder is
// threaded through the engine layers (device fault injection → dbc →
// pim → memory → workloads → the public façade): each traced control
// step becomes an Event carrying the op kind, the emitting component
// (DBC coordinates), the cycle timestamp, the affected wire/bit count
// and the energy delta. Events fan out to pluggable Sinks: an in-memory
// ring buffer, the one file export (a Chrome trace_event stream loadable
// in Perfetto/chrome://tracing) and the hardware profiler
// (internal/telemetry/profile), the one aggregate of the stream, whose
// views are its Prometheus text, Chrome counters, `coruscant top` and
// the text report behind -metrics.
//
// A Recorder is also the one cost ledger (Metrics): it keeps the integer
// step and wire totals of every event kind it records (Stats), its cycle
// clock follows trace.Stats.Cycles() — one cycle per control step — and
// its energy is those totals priced once (EnergyPJ). A DBC charges each
// step to its recorder with one call, and every device cost is read from
// a recorder's ledger: a memory.Memory's directly, a pim.Unit's as its
// growth since the unit's last ResetStats. A memory and a unit always
// carry a recorder, by default one with no sink, which builds no Event
// at all: it keeps the clock, the timeline and the ledger.
//
// Overhead contract: a nil *Recorder is valid, discards everything and
// costs a single inlineable nil check per hook. A bare dbc.DBC and a
// pimc compile without Options.Recorder run that way, within 2% of the
// un-instrumented speed (see BENCH_obs.json and the BenchmarkDBC* rows).
// A recorder with no sink costs its lock, clock, timeline and ledger on
// every step (the BenchmarkTelemetryOn* rows).
package telemetry

import (
	"fmt"
	"sync"

	"repro/internal/params"
	"repro/internal/trace"
)

// Op enumerates the event kinds of the telemetry stream: the device
// primitives of trace.Stats, injected faults, row-granularity data
// movement inside a memory, and higher-level spans.
type Op uint8

// Event kinds. The first eight are the control steps of trace.Kind,
// value for value, so a step kind indexes trace.Prices.
const (
	OpShift = Op(trace.Shift) // DBC-wide domain-wall shift step
	OpTR    = Op(trace.TR)    // transverse-read step
	OpWrite = Op(trace.Write) // access-port write step
	OpRead  = Op(trace.Read)  // access-port read step
	OpTW    = Op(trace.TW)    // transverse-write step
	OpCopy  = Op(trace.Copy)  // laterally shifted read/write step
	OpLogic = Op(trace.Logic) // PIM-logic / row-buffer-only step
	OpStall = Op(trace.Stall) // idle cycle (recovery backoff); costs latency, no energy
)

// Instant, span and window kinds follow the step kinds.
const (
	OpFault    Op = OpStall + 1 + iota // injected or detected fault (zero-duration, tagged)
	OpRowRead                          // memory row read (row movement, not a cycle)
	OpRowWrite                         // memory row write
	OpRowCopy                          // row-buffer transfer between DBCs
	OpMark                             // zero-duration tagged control event (retry, giveup, quarantine)
	OpSpan                             // higher-level operation span (Begin/End pair)
	OpWindow                           // parallelism-window marker (begin/lane/end, makespan accounting)

	numOps
)

// NumOps is the number of event kinds, for consumers (the hardware
// profiler) sizing per-op tables indexed by Op.
const NumOps = int(numOps)

var opNames = [numOps]string{
	"shift", "tr", "write", "read", "tw", "copy", "logic", "stall",
	"fault", "row-read", "row-write", "row-copy", "mark", "span", "window",
}

// Window-marker names carried in Event.Name by OpWindow instants. The
// markers drive the recorder's makespan timeline (trace.Timeline):
// begin opens a parallelism window, lane starts a new concurrent lane
// inside it, end commits the longest lane. They are scheduling
// annotations, not device activity — the ledger, the Chrome exporter
// and the hardware profiler all skip them, so aggregate totals stay
// equal between windowed and serial runs of the same work.
const (
	WindowMarkBegin = "begin"
	WindowMarkLane  = "lane"
	WindowMarkEnd   = "end"
)

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Source identifies the engine component an event came from, e.g. the
// DBC coordinates "b0.s0.t0.d511" assigned by memory.Memory or a
// caller-chosen unit label. Sources map to separate tracks (thread
// lanes) in the Chrome trace export.
type Source string

// Phase distinguishes the event shapes of the stream.
type Phase uint8

// Event phases, mapping onto Chrome trace_event phases X/B/E/i.
const (
	PhaseStep    Phase = iota // one complete primitive control step
	PhaseBegin                // span start
	PhaseEnd                  // span end
	PhaseInstant              // zero-duration tagged event (fault, row move)
)

// Spatial attribution constants for Event.Row / Event.Pos. Both fields
// use a +1 bias so the Event zero value means "no spatial detail" and
// every pre-existing emitter stays valid unchanged.
const (
	// PortLeft..PortBoth are the Pos values of an attributed
	// access-port step: which port(s) the step touched.
	PortLeft  = 1 + iota // left access port
	PortRight            // right access port
	PortBoth             // both ports in one step (scatter writes)

	// PosBias biases the head offset carried in Pos by shift steps:
	// Pos = offset + PosBias. Legal offsets are bounded by the track's
	// overhead domains, far below the bias, so Pos > 0 always holds for
	// an attributed shift and Pos == 0 still means "not attributed".
	PosBias = 1 << 20
)

// Event is one telemetry record.
type Event struct {
	Op    Op     // event kind
	Phase Phase  // step, span begin/end, or instant
	Src   Source // emitting component
	Name  string // span name or fault detail; "" for primitive steps
	Cycle uint64 // cycle timestamp (trace.Stats-derived clock)
	Wires int    // affected nanowires/bits (0 when not applicable)
	// EnergyPJ is the energy delta of this step in picojoules, from the
	// same per-primitive table trace.Stats.EnergyPJ uses.
	EnergyPJ float64
	// Row and Pos carry optional spatial attribution for the hardware
	// profiler (telemetry/profile); zero means "not attributed". For
	// access-port steps (OpRead/OpWrite/OpTW and scatter OpWrite), Row
	// is the 1-based data row under the (left, for PortBoth) accessed
	// port and Pos one of PortLeft/PortRight/PortBoth. For OpShift
	// steps Pos is the head offset after the step biased by PosBias.
	// Events recorded through the plain Step/Move hooks leave both zero.
	Row int
	Pos int
}

// Sink consumes the event stream. Implementations must be safe for use
// from a single Recorder (which serializes Emit calls under its lock);
// the provided sinks additionally lock internally so they can be shared
// across recorders.
type Sink interface {
	Emit(e Event)
	// Close flushes and releases the sink. A sink must tolerate Emit
	// calls being absent after Close is requested by the recorder.
	Close() error
}

// Recorder is the telemetry hub: a cycle clock, a makespan timeline,
// one cost ledger and a fan-out to the attached sinks. It charges every
// event to its ledger and, when a sink is attached, timestamps and
// prices the event and hands it to each sink. A nil *Recorder is valid
// and records nothing — the hooks threaded through the engine cost one
// branch when telemetry is disabled.
//
// A Recorder is safe for concurrent use; a single lock serializes the
// clock, mirroring the one memory controller in front of the arrays.
type Recorder struct {
	mu     sync.Mutex
	cycle  uint64
	tl     trace.Timeline // per-window critical-path accounting
	ledger Metrics        // step and wire totals of every event kind
	price  trace.Prices   // per-wire energy of each step kind
	sinks  []Sink
	spans  map[Source][]spanFrame // open spans; kept only while a sink is attached
}

// spanFrame is an open span: its name and the ledger when it began.
type spanFrame struct {
	name  string
	start trace.Stats
}

// NewRecorder returns a recorder pricing events with cfg's energy table
// and emitting to the given sinks (none is valid: the recorder then
// keeps only its clock, timeline and ledger).
func NewRecorder(cfg params.Config, sinks ...Sink) *Recorder {
	return &Recorder{price: trace.PricesFor(cfg.Energy, cfg.TRD), sinks: sinks}
}

// Step records one primitive control step of kind op (a step kind,
// OpShift through OpStall) at src touching wires nanowires (or bits),
// advancing the cycle clock by one — the same one-cycle-per-control-step
// rule as trace.Stats.Cycles() — and charging the ledger. The
// wrapper stays small enough to inline so the nil (disabled) path costs
// a single branch.
func (r *Recorder) Step(src Source, op Op, wires int) {
	if r == nil {
		return
	}
	r.step(src, op, wires, 0, 0)
}

// StepShift records one OpShift control step carrying the head offset
// after the step, the spatial form of Step the profiler's head-position
// occupancy is built on. Callers on the hot path should guard the call
// (and the offset computation) behind their own nil-recorder check so
// the disabled engine keeps its single-branch overhead contract.
func (r *Recorder) StepShift(src Source, wires, offset int) {
	if r == nil {
		return
	}
	r.step(src, OpShift, wires, 0, offset+PosBias)
}

// StepPort records one access-port control step (OpRead, OpWrite or
// OpTW) carrying the data row under the accessed port and which port
// was used (PortLeft, PortRight or PortBoth — for PortBoth row names
// the left-port row; the right-port row sits TRD-1 rows further). A
// negative row (overhead domain under the port) records unattributed.
func (r *Recorder) StepPort(src Source, op Op, wires, row, port int) {
	if r == nil {
		return
	}
	if row < 0 {
		r.step(src, op, wires, 0, 0)
		return
	}
	r.step(src, op, wires, row+1, port)
}

func (r *Recorder) step(src Source, op Op, wires, row, pos int) {
	r.mu.Lock()
	if len(r.sinks) > 0 {
		r.emit(Event{
			Op:       op,
			Phase:    PhaseStep,
			Src:      src,
			Cycle:    r.cycle,
			Wires:    wires,
			EnergyPJ: float64(wires) * r.price[op],
			Row:      row,
			Pos:      pos,
		})
	}
	r.cycle++
	r.tl.Step()
	r.ledger.add(op, wires)
	r.mu.Unlock()
}

// emit hands e to every sink. The caller holds r.mu.
func (r *Recorder) emit(e Event) {
	for _, s := range r.sinks {
		s.Emit(e)
	}
}

// Fault records an injected fault as a zero-duration tagged event at
// the current cycle: detail names the fault mode (e.g. "tr",
// "shift-overshoot") and wires how many nanowires were perturbed. The
// clock does not advance — the fault rides on the step that exposed it.
func (r *Recorder) Fault(src Source, detail string, wires int) {
	if r == nil {
		return
	}
	r.instant(src, OpFault, detail, wires)
}

// Mark records a zero-duration tagged control event at src — a named
// instant that is neither a fault nor a row movement (recovery retries
// and give-ups, quarantine decisions). The clock does not advance.
func (r *Recorder) Mark(src Source, detail string, wires int) {
	if r == nil {
		return
	}
	r.instant(src, OpMark, detail, wires)
}

// Move records a row-granularity data movement (OpRowRead, OpRowWrite
// or OpRowCopy) of wires bits at src. Moves are instants: the port and
// shift steps that implement them are recorded separately and carry the
// cycles and energy.
func (r *Recorder) Move(src Source, op Op, wires int) {
	if r == nil {
		return
	}
	r.instant(src, op, "", wires)
}

func (r *Recorder) instant(src Source, op Op, name string, wires int) {
	r.mu.Lock()
	r.ledger.add(op, wires)
	if len(r.sinks) > 0 {
		r.emit(Event{Op: op, Phase: PhaseInstant, Src: src, Name: name, Cycle: r.cycle, Wires: wires})
	}
	r.mu.Unlock()
}

// Begin opens a named span at src: a higher-level operation (an AddMulti
// call, a cpim instruction, a CNN layer) that groups the primitive steps
// recorded until the matching End. Spans nest per source. With no sink
// attached there is nothing to report a span to, and Begin keeps no
// frame.
func (r *Recorder) Begin(src Source, name string) {
	if r == nil {
		return
	}
	r.begin(src, name)
}

// begin opens the span and reports whether it kept a frame, which it
// does only while a sink is attached.
func (r *Recorder) begin(src Source, name string) bool {
	r.mu.Lock()
	framed := len(r.sinks) > 0
	if framed {
		if r.spans == nil {
			r.spans = make(map[Source][]spanFrame)
		}
		r.spans[src] = append(r.spans[src], spanFrame{name: name, start: r.ledger.Stats()})
		r.emit(Event{Op: OpSpan, Phase: PhaseBegin, Src: src, Name: name, Cycle: r.cycle})
	}
	r.mu.Unlock()
	return framed
}

// End closes the innermost open span at src. Its End event carries the
// span's energy in EnergyPJ — the ledger's growth since Begin, priced —
// and its cycles are the End event's cycle minus the Begin event's. An
// End without a matching Begin is ignored.
func (r *Recorder) End(src Source) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if stack := r.spans[src]; len(stack) > 0 && len(r.sinks) > 0 {
		f := stack[len(stack)-1]
		r.spans[src] = stack[:len(stack)-1]
		d := r.ledger.Stats()
		d.Add(f.start.Scale(-1))
		r.emit(Event{Op: OpSpan, Phase: PhaseEnd, Src: src, Name: f.name, Cycle: r.cycle, EnergyPJ: r.price.EnergyPJ(d)})
	}
	r.mu.Unlock()
}

var nopEnd = func() {}

// Span opens a span and returns its closer, for the
// `defer rec.Span(src, "add")()` idiom. On a nil recorder, or one with
// no sink, which keeps no span frame, it returns a shared no-op
// closure, so those call sites do not allocate.
func (r *Recorder) Span(src Source, name string) func() {
	if r == nil || !r.begin(src, name) {
		return nopEnd
	}
	return func() { r.End(src) }
}

// WindowBegin opens a parallelism window on the makespan timeline and
// emits the marker to the sinks (so a trace consumer can rebuild the
// timeline exactly). The cycle clock is untouched: window markers
// are scheduling annotations, not device activity. ExecuteBatch is the
// canonical emitter — one window per batch, one lane per independent
// request group.
func (r *Recorder) WindowBegin() {
	if r == nil {
		return
	}
	r.window(WindowMarkBegin)
}

// WindowLane starts a new concurrent lane of the open window: steps
// recorded until the next lane (or the window's end) are charged from
// the window's opening cycle, concurrent with every other lane.
func (r *Recorder) WindowLane() {
	if r == nil {
		return
	}
	r.window(WindowMarkLane)
}

// WindowEnd closes the open window, committing its longest lane to the
// makespan frontier.
func (r *Recorder) WindowEnd() {
	if r == nil {
		return
	}
	r.window(WindowMarkEnd)
}

// window applies one marker to the timeline and emits it. Markers skip
// the ledger on purpose: they carry no device work, and aggregate totals
// must stay identical between windowed and serial runs.
func (r *Recorder) window(mark string) {
	r.mu.Lock()
	switch mark {
	case WindowMarkBegin:
		r.tl.WindowBegin()
	case WindowMarkLane:
		r.tl.Lane()
	case WindowMarkEnd:
		r.tl.WindowEnd()
	}
	if len(r.sinks) > 0 {
		r.emit(Event{Op: OpWindow, Phase: PhaseInstant, Name: mark, Cycle: r.cycle})
	}
	r.mu.Unlock()
}

// Makespan returns the critical-path cycle count of the recorded
// stream: like Cycle, but stretches bracketed by window markers cost
// only their longest lane. With no windows recorded, Makespan equals
// Cycle exactly. The value is deterministic — a pure function of the
// event stream, independent of worker count or host scheduling.
func (r *Recorder) Makespan() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tl.Makespan()
}

// Cycle returns the current value of the cycle clock: the number of
// control steps recorded so far.
func (r *Recorder) Cycle() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cycle
}

// Stats returns the ledger's step kinds: the integer step and wire
// totals by kind of every control step recorded so far.
// Stats().Cycles() equals Cycle().
func (r *Recorder) Stats() trace.Stats {
	if r == nil {
		return trace.Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledger.Stats()
}

// EnergyPJ returns the total energy recorded so far, in picojoules: the
// ledger priced once, so it equals Stats().EnergyPJ exactly however the
// steps interleaved.
func (r *Recorder) EnergyPJ() float64 {
	if r == nil {
		return 0
	}
	return r.price.EnergyPJ(r.Stats())
}

// Metrics returns a copy of the recorder's ledger, taken under its
// lock: never nil for a NewRecorder recorder, nil for a nil one.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	m := r.ledger
	r.mu.Unlock()
	return &m
}

// Close closes every attached sink, returning the first error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.sinks = nil
	return first
}
