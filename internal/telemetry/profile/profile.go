// Package profile is the racetrack hardware profiler: a telemetry.Sink
// that attributes the event stream spatially, the way the performance
// of a racetrack memory is actually decided — which DBC shifted how
// far, which rows absorb the write wear, where the access-port heads
// spend their cycles, and where the energy goes.
//
// Where telemetry.Metrics aggregates by op kind and source, the
// profiler keeps per-DBC spatial state: per-row access/write counts
// (the wear heatmap endurance planning needs), head-position occupancy
// (how the shift excursion is used), shift-distance histograms per
// access port (the locality lever of the "Perspectives of Racetrack
// Memory" survey), and energy split by primitive kind. It is fed by
// the spatially-attributed events the dbc layer emits (Event.Row /
// Event.Pos, see telemetry.StepShift/StepPort): shift steps carry the
// head offset after the step, port accesses the data row under the
// port. Shift distance is derived structurally — a run of consecutive
// shift steps on one DBC ends at the port access that needed the
// alignment, so the run length is exactly the align distance the
// placement cost model predicts.
//
// Overhead contract: the profiler attaches as an ordinary sink, so the
// nil-recorder engine path is untouched (one branch per hook), and a
// recorder without a profiler pays nothing new. ExecuteBatch records
// straight into the memory's recorder and only reorders groups with
// disjoint footprints, so profiled counters from a batch are
// bit-identical to a serial run.
//
// The aggregate is exposed three ways: Prometheus text exposition
// (WritePrometheus / Handler, mounted on -debug-addr next to expvar
// and pprof), Chrome trace counter events (WithChromeCounters, so
// per-DBC heatlines render in Perfetto), and the `coruscant top` live
// terminal view (RenderTop).
package profile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// Port indexes the per-access-port aggregates: 0 = left, 1 = right.
const (
	PortLeft = iota
	PortRight
	numPorts
)

var portNames = [numPorts]string{"left", "right"}

// dbcProf is the spatial aggregate of one telemetry source (one DBC,
// or any caller-labelled unit).
type dbcProf struct {
	steps    [telemetry.NumOps]uint64  // control steps / instants per op kind
	energyPJ [telemetry.NumOps]float64 // energy per op kind
	totalPJ  float64

	rowReads  []uint64 // per-row port-read counts (grown on demand)
	rowWrites []uint64 // per-row port-write + TW counts (wear)

	occupancy map[int]uint64 // head offset -> shift steps ending there

	shiftRun  uint64                   // current consecutive shift-step run
	portDist  [numPorts]telemetry.Hist // align distance per consumed port
	shiftDist telemetry.Hist           // align distance regardless of port

	lastCycle uint64 // cycle of the newest event (counter timestamps)
	counted   uint64 // events since the last Chrome counter sample
}

// Profiler aggregates spatially-attributed telemetry events. Attach it
// to a Recorder as a sink; all methods are safe for concurrent use.
type Profiler struct {
	mu   sync.Mutex
	cfg  params.Config
	gap  int // right-port row minus left-port row (TRD-1)
	srcs map[telemetry.Source]*dbcProf

	counters     *telemetry.ChromeSink
	counterEvery uint64

	// labels is the rendered constant-label prefix (`shard="3",`) every
	// Prometheus sample of this profiler carries; see WithLabel.
	labels string
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithChromeCounters streams per-DBC counter ('C') samples into the
// given Chrome sink: every `every` events per source (default 64 when
// every <= 0), the source's cumulative shift steps, row writes and
// energy are sampled at the current cycle, so Perfetto renders them as
// per-DBC heatlines alongside the event tracks. Sampling is a pure
// function of each source's event stream, so batches produce the same
// counters as serial runs.
func WithChromeCounters(sink *telemetry.ChromeSink, every int) Option {
	if every <= 0 {
		every = 64
	}
	return func(p *Profiler) {
		p.counters = sink
		p.counterEvery = uint64(every)
	}
}

// WithLabel attaches a constant label (e.g. shard="3") to every
// Prometheus sample the profiler emits. A multi-shard service gives
// each shard's profiler its own shard label, so a combined /metrics
// page (WriteManyPrometheus) keeps same-named DBC series distinct —
// and `coruscant top` renders one utilization line per (shard, DBC)
// instead of silently merging them.
func WithLabel(name, value string) Option {
	return func(p *Profiler) {
		p.labels += fmt.Sprintf("%s=%q,", name, value)
	}
}

// New returns an empty profiler for the given device configuration
// (the geometry scales the wear and occupancy axes).
func New(cfg params.Config, opts ...Option) *Profiler {
	p := &Profiler{
		cfg:  cfg,
		gap:  int(cfg.TRD) - 1,
		srcs: make(map[telemetry.Source]*dbcProf),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

func (p *Profiler) src(s telemetry.Source) *dbcProf {
	d := p.srcs[s]
	if d == nil {
		d = &dbcProf{occupancy: make(map[int]uint64)}
		p.srcs[s] = d
	}
	return d
}

// Emit folds one telemetry event into the spatial aggregate (Sink).
func (p *Profiler) Emit(e telemetry.Event) {
	if e.Op == telemetry.OpWindow {
		// Window markers are scheduling annotations with no source or
		// device work; folding them in would fabricate an unattributed
		// DBC and make windowed and serial snapshots diverge.
		return
	}
	p.mu.Lock()
	d := p.src(e.Src)
	if e.Cycle > d.lastCycle {
		d.lastCycle = e.Cycle
	}
	switch e.Phase {
	case telemetry.PhaseStep:
		d.steps[e.Op]++
		d.energyPJ[e.Op] += e.EnergyPJ
		d.totalPJ += e.EnergyPJ
		if e.Op == telemetry.OpShift {
			d.shiftRun++
			if e.Pos > 0 {
				d.occupancy[e.Pos-telemetry.PosBias]++
			}
		} else {
			d.endRun(e, p.gap)
		}
		p.sampleCounters(e.Src, d)
	case telemetry.PhaseInstant:
		d.steps[e.Op]++
		p.sampleCounters(e.Src, d)
	}
	p.mu.Unlock()
}

// endRun closes the current shift run at a non-shift step: the run
// length is the align distance that step needed. Port accesses also
// record per-row wear and attribute the run to the consumed port.
func (d *dbcProf) endRun(e telemetry.Event, gap int) {
	run := d.shiftRun
	d.shiftRun = 0
	if run > 0 {
		d.shiftDist.Observe(run)
	}
	if e.Row <= 0 {
		return
	}
	row := e.Row - 1
	switch e.Op {
	case telemetry.OpRead:
		d.wear(&d.rowReads, row)
	case telemetry.OpWrite, telemetry.OpTW:
		d.wear(&d.rowWrites, row)
	default:
		return
	}
	port := PortLeft
	switch e.Pos {
	case telemetry.PortRight:
		port = PortRight
	case telemetry.PortBoth:
		// Scatter across both ports: wear lands on both aligned rows
		// (the event's row is the left-port one, the right-port row
		// sits TRD-1 data rows further); the shift run is attributed
		// once, to the left port.
		if e.Op != telemetry.OpRead {
			d.wear(&d.rowWrites, row+gap)
		}
	}
	if run > 0 {
		d.portDist[port].Observe(run)
	}
}

// wear bumps a per-row counter, growing the slice to cover the row.
func (d *dbcProf) wear(rows *[]uint64, row int) {
	for len(*rows) <= row {
		*rows = append(*rows, 0)
	}
	(*rows)[row]++
}

func (p *Profiler) sampleCounters(src telemetry.Source, d *dbcProf) {
	if p.counters == nil {
		return
	}
	d.counted++
	if d.counted < p.counterEvery {
		return
	}
	d.counted = 0
	p.counters.EmitCounter(src, d.lastCycle, "hw."+string(src), map[string]float64{
		"shift_steps": float64(d.steps[telemetry.OpShift]),
		"row_writes":  float64(sum(d.rowWrites)),
		"energy_pj":   d.totalPJ,
		"busy_cycles": float64(d.busyCycles()),
	})
}

// busyCycles sums the source's control-step cycles — the per-DBC busy
// timeline the makespan accounting maximizes over.
func (d *dbcProf) busyCycles() uint64 {
	var n uint64
	for op := telemetry.OpShift; op <= telemetry.OpStall; op++ {
		n += d.steps[op]
	}
	return n
}

func sum(v []uint64) uint64 {
	var n uint64
	for _, x := range v {
		n += x
	}
	return n
}

// Close flushes nothing — the aggregate stays readable (Sink).
func (p *Profiler) Close() error { return nil }

// DBCSnapshot is the exported spatial aggregate of one source.
type DBCSnapshot struct {
	Src      string
	Steps    [telemetry.NumOps]uint64  // per op kind (indexed by telemetry.Op)
	EnergyPJ [telemetry.NumOps]float64 // per op kind
	TotalPJ  float64

	Cycles uint64 // control-step cycles attributed to the source

	RowReads  []uint64 // per-row port reads
	RowWrites []uint64 // per-row port writes + TWs (wear)

	Occupancy map[int]uint64 // head offset -> shift steps ending there

	ShiftDist telemetry.Hist           // align-run distance, any port
	PortDist  [numPorts]telemetry.Hist // align-run distance per port
}

// ShiftSteps returns the source's total shift-step count.
func (s DBCSnapshot) ShiftSteps() uint64 { return s.Steps[telemetry.OpShift] }

// WearTotal returns the source's total write wear (port writes + TWs).
func (s DBCSnapshot) WearTotal() uint64 { return sum(s.RowWrites) }

// HottestRow returns the row with the highest write wear and its
// count, or (-1, 0) when nothing was written.
func (s DBCSnapshot) HottestRow() (row int, writes uint64) {
	row = -1
	for r, n := range s.RowWrites {
		if n > writes {
			row, writes = r, n
		}
	}
	return row, writes
}

// Snapshot returns the per-source aggregates, sorted by source name,
// as owned copies.
func (p *Profiler) Snapshot() []DBCSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DBCSnapshot, 0, len(p.srcs))
	for src, d := range p.srcs {
		snap := DBCSnapshot{
			Src:       string(src),
			Steps:     d.steps,
			EnergyPJ:  d.energyPJ,
			TotalPJ:   d.totalPJ,
			RowReads:  append([]uint64(nil), d.rowReads...),
			RowWrites: append([]uint64(nil), d.rowWrites...),
			Occupancy: make(map[int]uint64, len(d.occupancy)),
			ShiftDist: d.shiftDist,
			PortDist:  d.portDist,
		}
		for off, n := range d.occupancy {
			snap.Occupancy[off] = n
		}
		for op := telemetry.OpShift; op <= telemetry.OpStall; op++ {
			snap.Cycles += d.steps[op]
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// ShiftStepsBySource returns the measured shift-step count per source,
// the counters `pimasm exec -profile` joins against the placement
// model's predictions.
func (p *Profiler) ShiftStepsBySource() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.srcs))
	for src, d := range p.srcs {
		if n := d.steps[telemetry.OpShift]; n > 0 {
			out[string(src)] = n
		}
	}
	return out
}

// OffsetRange returns the legal head-offset excursion of the profiled
// geometry, bounding the occupancy axis.
func (p *Profiler) OffsetRange() (lo, hi int) {
	return device.OffsetRange(p.cfg.Geometry.RowsPerDBC, p.cfg.TRD)
}
