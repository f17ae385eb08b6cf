// Package telemetry is the engine-wide observability layer: a
// cycle-accurate event stream plus aggregate runtime metrics for every
// device primitive the simulator executes.
//
// Where internal/trace answers "how many primitives did this operation
// cost in total", telemetry answers "when did each one happen, on which
// DBC, and what did it cost" — the timeline the paper's per-primitive
// methodology implies but aggregate counters cannot show. A Recorder is
// threaded through the engine layers (device fault injection → dbc →
// pim → memory → workloads → the public façade): each traced control
// step becomes an Event carrying the op kind, the emitting component
// (DBC coordinates), the cycle timestamp, the affected wire/bit count
// and the energy delta. Events fan out to pluggable Sinks — an
// in-memory ring buffer, a JSONL writer, and a Chrome trace_event
// exporter loadable in Perfetto/chrome://tracing — and accumulate into
// Metrics (counters and histograms per op kind, per source and per
// span), reported as a text dump (Metrics.WriteText); the one
// machine-readable exposition is the profiler's Prometheus text
// (internal/telemetry/profile).
//
// The cycle clock follows the same rule as trace.Stats.Cycles(): one
// cycle per control step. A Recorder attached next to a trace.Tracer
// therefore agrees with it exactly (telemetry tests assert this).
//
// Overhead contract: a nil *Recorder is valid, discards everything and
// costs a single inlineable nil check per hook, so the disabled engine
// stays within 2% of its un-instrumented speed (see BENCH_obs.json and
// the BenchmarkTelemetry* overhead guards).
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

// Event kinds. The first eight mirror the control-step counters of
// trace.Stats one-to-one.
const (
	OpShift    Op = iota // DBC-wide domain-wall shift step
	OpTR                 // transverse-read step
	OpWrite              // access-port write step
	OpRead               // access-port read step
	OpTW                 // transverse-write step
	OpCopy               // laterally shifted read/write step
	OpLogic              // PIM-logic / row-buffer-only step
	OpStall              // idle cycle (recovery backoff); costs latency, no energy
	OpFault              // injected or detected fault (zero-duration, tagged)
	OpRowRead            // memory row read (row movement, not a cycle)
	OpRowWrite           // memory row write
	OpRowCopy            // row-buffer transfer between DBCs
	OpMark               // zero-duration tagged control event (retry, giveup, quarantine)
	OpSpan               // higher-level operation span (Begin/End pair)
	OpWindow             // parallelism-window marker (begin/lane/end, makespan accounting)

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
// annotations, not device activity — Metrics, the Chrome exporter and
// the hardware profiler all skip them, so aggregate totals stay equal
// between windowed and serial runs of the same work.
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

// Recorder is the telemetry hub: it timestamps events on a cycle clock,
// prices them with the configured energy table, updates Metrics and
// fans them out to the attached sinks. A nil *Recorder is valid and
// records nothing — the hooks threaded through the engine cost one
// branch when telemetry is disabled.
//
// A Recorder is safe for concurrent use; a single lock serializes the
// clock, mirroring the one memory controller in front of the arrays.
type Recorder struct {
	mu      sync.Mutex
	cycle   uint64
	tl      trace.Timeline // per-window critical-path accounting
	totalPJ float64
	energy  params.Energy
	trd     params.TRD
	sinks   []Sink
	metrics *Metrics
	spans   map[Source][]spanFrame
}

type spanFrame struct {
	name        string
	startCycle  uint64
	startEnergy float64
}

// NewRecorder returns a recorder pricing events with cfg's energy table
// and emitting to the given sinks (none is valid: metrics only).
func NewRecorder(cfg params.Config, sinks ...Sink) *Recorder {
	return &Recorder{
		energy:  cfg.Energy,
		trd:     cfg.TRD,
		sinks:   sinks,
		metrics: NewMetrics(),
		spans:   make(map[Source][]spanFrame),
	}
}

// Step records one primitive control step of kind op at src touching
// wires nanowires (or bits), advancing the cycle clock by one — the
// same one-cycle-per-control-step rule as trace.Stats.Cycles(). The
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
	e := Event{
		Op:       op,
		Phase:    PhaseStep,
		Src:      src,
		Cycle:    r.cycle,
		Wires:    wires,
		EnergyPJ: r.stepEnergy(op, wires),
		Row:      row,
		Pos:      pos,
	}
	r.cycle++
	r.tl.Step()
	r.totalPJ += e.EnergyPJ
	r.metrics.record(e)
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// stepEnergy prices one control step, mirroring trace.Stats.EnergyPJ.
func (r *Recorder) stepEnergy(op Op, wires int) float64 {
	switch op {
	case OpShift:
		return float64(wires) * r.energy.ShiftPJ
	case OpTR:
		return float64(wires) * r.energy.TRPJ(r.trd)
	case OpWrite:
		return float64(wires) * r.energy.WritePJ
	case OpRead:
		return float64(wires) * r.energy.ReadPJ
	case OpTW:
		return float64(wires) * r.energy.TWPJ
	case OpCopy:
		return float64(wires) * (r.energy.ReadPJ + r.energy.WritePJ)
	}
	return 0
}

// Stall records n idle cycles at src: the clock advances by n, one
// OpStall step per cycle (so SrcMetrics cycle sums and the trace.Stats
// contract stay exact), and no energy accrues. Recovery backoff is the
// canonical emitter.
func (r *Recorder) Stall(src Source, n int) {
	if r == nil {
		return
	}
	for i := 0; i < n; i++ {
		r.step(src, OpStall, 0, 0, 0)
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
	e := Event{Op: op, Phase: PhaseInstant, Src: src, Name: name, Cycle: r.cycle, Wires: wires}
	r.metrics.record(e)
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// Begin opens a named span at src: a higher-level operation (an AddMulti
// call, a cpim instruction, a CNN layer) that groups the primitive steps
// recorded until the matching End. Spans nest per source.
func (r *Recorder) Begin(src Source, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[src] = append(r.spans[src], spanFrame{name: name, startCycle: r.cycle, startEnergy: r.totalPJ})
	e := Event{Op: OpSpan, Phase: PhaseBegin, Src: src, Name: name, Cycle: r.cycle}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// End closes the innermost open span at src, recording its cycle
// duration and energy delta into the span metrics. An End without a
// matching Begin is ignored.
func (r *Recorder) End(src Source) {
	if r == nil {
		return
	}
	r.mu.Lock()
	stack := r.spans[src]
	if n := len(stack); n > 0 {
		f := stack[n-1]
		r.spans[src] = stack[:n-1]
		e := Event{Op: OpSpan, Phase: PhaseEnd, Src: src, Name: f.name, Cycle: r.cycle}
		r.metrics.recordSpan(f.name, r.cycle-f.startCycle, r.totalPJ-f.startEnergy)
		for _, s := range r.sinks {
			s.Emit(e)
		}
	}
	r.mu.Unlock()
}

var nopEnd = func() {}

// Span opens a span and returns its closer, for the
// `defer rec.Span(src, "add")()` idiom. On a nil recorder it returns a
// shared no-op closure, so disabled call sites do not allocate.
func (r *Recorder) Span(src Source, name string) func() {
	if r == nil {
		return nopEnd
	}
	r.Begin(src, name)
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
// Metrics on purpose: they carry no device work, and aggregate totals
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
	e := Event{Op: OpWindow, Phase: PhaseInstant, Name: mark, Cycle: r.cycle}
	for _, s := range r.sinks {
		s.Emit(e)
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

// EnergyPJ returns the total energy recorded so far, in picojoules.
func (r *Recorder) EnergyPJ() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalPJ
}

// Metrics returns the recorder's aggregate metrics: never nil for a
// NewRecorder recorder, nil for a nil one.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
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
