package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// options is one single-workload invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// traceOut is the span file a traced run writes ("" writes none).
	traceOut string
	// scale multiplies every round's frozen op count. Runs leave it at
	// 1; the smoke test shrinks rounds with it.
	scale float64
}

// workload is one named traffic shape. Every round generates its inputs
// from the seed, builds a fresh system (timed as set-up), runs the
// workload's frozen number of operations against it (the measured
// phase), and only then checks every output, so verification never
// shares the CPU with measurement.
type workload struct {
	name string
	// ops is the frozen operation count of one measured round: HTTP
	// requests, memory requests, or programs compiled and run. It is
	// sized so a round takes one to two seconds on the reference host
	// (bench/README.md).
	ops int
	// slo is the per-call latency limit behind host.slo_ok_ratio.
	slo time.Duration
	// prepare generates a round's inputs; it is not timed.
	prepare func(e env) (round, error)
}

// env is what one round is built from.
type env struct {
	seed  int64
	round int // seeds the round's inputs; the warm-up round is -1
	ops   int
	tr    *tracer // nil for untraced rounds
}

// rngSeed derives a round's input seed, so rounds differ in data but a
// run repeats exactly for the same --seed.
func (e env) rngSeed() int64 { return e.seed<<16 + int64(e.round) + 1 }

// round is one round's generated inputs and the system they run on.
type round interface {
	// build constructs the system under test and makes it ready: the
	// set-up. On error it stops whatever it started.
	build() error
	// run issues every operation and fills rec.calls and rec.late. It
	// is the only timed phase.
	run(rec *record)
	// sim snapshots the simulated counters of the system under test.
	sim() simSnap
	// close stops everything build and run started and waits for it.
	close()
	// verify checks every recorded output against an independent
	// reference and marks the calls that failed. On traced rounds it
	// also times batch planning on the round's batches.
	verify(rec *record)
}

// call is one timed call into the system under test: an HTTP request,
// an ExecuteBatch, or a program compiled and run.
type call struct {
	lat    time.Duration
	ops    int32 // operations the call carried
	failed int32 // of which failed: an error at run time or a mismatch at verify
}

// record is what one round measured.
type record struct {
	calls []call
	// late is how long the load generator held each call back: past its
	// due time in an open loop, after the previous reply in a closed one.
	late []time.Duration
}

// simSnap is the simulated cost of the system so far, summed over its
// memories.
type simSnap struct {
	cycles, makespan uint64
	// dev is Memory.Stats(), the device primitives the DBC tracers
	// counted; recorded is the same counts as the telemetry recorder
	// priced them, the view its cycle clock and energy are built from.
	// The two differ by the steps a PIM unit charges to its own tracer.
	dev, recorded trace.Stats
	moves         memory.MoveStats
	dbcs          int
	cfg           params.Config
}

func snapshot(mems ...*memory.Memory) simSnap {
	s := simSnap{cfg: mems[0].Config()}
	for _, m := range mems {
		rec := m.Recorder()
		s.cycles += rec.Cycle()
		s.makespan += rec.Makespan()
		s.dev.Add(m.Stats())
		s.recorded.Add(recordedStats(rec.Metrics()))
		mv := m.Moves()
		s.moves.RowReads += mv.RowReads
		s.moves.RowWrites += mv.RowWrites
		s.moves.RowCopies += mv.RowCopies
		s.dbcs += m.MaterializedDBCs()
	}
	return s
}

// since returns the cost accrued between before and s; dbcs stays the
// count at s.
func (s simSnap) since(before simSnap) simSnap {
	d := s
	d.cycles -= before.cycles
	d.makespan -= before.makespan
	d.dev.Add(before.dev.Scale(-1))
	d.recorded.Add(before.recorded.Scale(-1))
	d.moves.RowReads -= before.moves.RowReads
	d.moves.RowWrites -= before.moves.RowWrites
	d.moves.RowCopies -= before.moves.RowCopies
	return d
}

// energyPJ prices the recorded primitives with the recorder's energy
// table. Pricing integer totals, rather than summing per-step energies
// in event order, makes the energy repeat exactly however the work
// interleaved.
func (s simSnap) energyPJ() float64 { return s.recorded.EnergyPJ(s.cfg.Energy, s.cfg.TRD) }

// recordedStats rebuilds primitive counts from a recorder's per-kind
// aggregates.
func recordedStats(m *telemetry.Metrics) trace.Stats {
	kind := func(op telemetry.Op) (steps, wires int) {
		om := m.Op(op)
		return int(om.Steps), int(om.WiresTotal)
	}
	var s trace.Stats
	s.ShiftSteps, s.ShiftWires = kind(telemetry.OpShift)
	s.TRSteps, s.TRWires = kind(telemetry.OpTR)
	s.WriteSteps, s.WriteBits = kind(telemetry.OpWrite)
	s.ReadSteps, s.ReadBits = kind(telemetry.OpRead)
	s.TWSteps, s.TWBits = kind(telemetry.OpTW)
	s.CopySteps, s.CopyBits = kind(telemetry.OpCopy)
	s.LogicSteps, _ = kind(telemetry.OpLogic)
	s.StallSteps, _ = kind(telemetry.OpStall)
	return s
}

// roundStats is one finished round.
type roundStats struct {
	setups            []time.Duration
	wall, verify, cpu time.Duration
	mallocs           uint64
	sim               simSnap
	rec               *record
	tr                *tracer // nil for untraced rounds
	refMops           float64 // host speed after a traced round
}

func (rs roundStats) ops() float64 {
	var n int64
	for _, c := range rs.rec.calls {
		n += int64(c.ops)
	}
	return float64(n)
}

func (rs roundStats) failed() int64 {
	var n int64
	for _, c := range rs.rec.calls {
		n += int64(c.failed)
	}
	return n
}

// sloOK counts the operations answered correctly within slo.
func (rs roundStats) sloOK(slo time.Duration) float64 {
	var n int64
	for _, c := range rs.rec.calls {
		if c.lat <= slo {
			n += int64(c.ops - c.failed)
		}
	}
	return float64(n)
}

func (rs roundStats) latencies() []float64 {
	out := make([]float64, len(rs.rec.calls))
	for i, c := range rs.rec.calls {
		out[i] = ms(c.lat)
	}
	sort.Float64s(out)
	return out
}

// setupSamples is how many times a round builds its system. Every build
// is a set-up sample; the last one is measured.
const setupSamples = 3

// runRound prepares, builds, measures, tears down and verifies one round.
func runRound(w *workload, e env) (roundStats, error) {
	r, err := w.prepare(e)
	if err != nil {
		return roundStats{}, fmt.Errorf("%s round %d: inputs: %w", w.name, e.round, err)
	}
	rs := roundStats{tr: e.tr}
	for i := 0; i < setupSamples; i++ {
		if i > 0 {
			r.close()
		}
		// Start every build from a collected heap, so garbage from the
		// last build or round is not charged to this one.
		runtime.GC()
		// Set-up is charged in process CPU time: on a shared virtual
		// machine its wall time also counts the stretches the host took
		// the CPU away.
		c0 := cpuTime()
		if err := r.build(); err != nil {
			return roundStats{}, fmt.Errorf("%s round %d: set-up: %w", w.name, e.round, err)
		}
		rs.setups = append(rs.setups, cpuTime()-c0)
	}
	e.tr.reset()
	rec := &record{}

	sim0, cpu0, mallocs0 := r.sim(), cpuTime(), mallocs()
	t1 := time.Now()
	r.run(rec)
	rs.wall = time.Since(t1)
	rs.mallocs = mallocs() - mallocs0
	rs.cpu = cpuTime() - cpu0
	rs.sim = r.sim().since(sim0)
	r.close()

	t2 := time.Now()
	r.verify(rec)
	rs.verify = time.Since(t2)
	rs.rec = rec
	return rs, nil
}

// measure runs one workload for about o.seconds: a quarter-size warm-up
// round, then full rounds until the time is used, at least minRounds of
// them. With o.trace, every second round is traced. Besides the result,
// an untraced run returns its host-time figures, which are shown but
// not gated.
func measure(w *workload, o options) (*result, map[string]metric, error) {
	ops := max(1, int(float64(w.ops)*o.scale))
	minRounds := 3
	if o.trace {
		minRounds = 4
	}
	warm, err := runRound(w, env{seed: o.seed, round: -1, ops: max(1, ops/4)})
	if err != nil {
		return nil, nil, err
	}
	var rounds []roundStats
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		e := env{seed: o.seed, round: i, ops: ops}
		if o.trace && i%2 == 1 {
			e.tr = newTracer()
		}
		rs, err := runRound(w, e)
		if err != nil {
			return nil, nil, err
		}
		if rs.tr != nil {
			rs.refMops = refMops()
		}
		rounds = append(rounds, rs)
		elapsed := time.Since(start)
		if len(rounds) >= minRounds && elapsed+elapsed/time.Duration(len(rounds)) > budget {
			break
		}
	}

	res := &result{Metrics: make(map[string]metric)}
	for _, rs := range append([]roundStats{warm}, rounds...) {
		res.Attempted += int64(rs.ops())
		res.Failed += rs.failed()
	}
	res.Correct = res.Failed == 0
	if o.trace {
		if err := perLayer(res.Metrics, w, rounds, o.traceOut); err != nil {
			return nil, nil, err
		}
		return res, nil, nil
	}
	endToEnd(res.Metrics, rounds)
	host := make(map[string]metric)
	hostTime(host, w, rounds)
	return res, host, nil
}

// perRound is the median over rounds of f, which keeps one slow round on
// a shared host from moving the result.
func perRound(rounds []roundStats, f func(rs roundStats) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, rs := range rounds {
		vals[i] = f(rs)
	}
	return median(vals)
}

func setMetric(out map[string]metric, name string, v float64) {
	out[name] = metric{Value: v, Unit: unitOf(name)}
}

// endToEnd derives the gated metrics: set-up time, memory, and the
// counts that do not depend on how fast the host runs.
func endToEnd(out map[string]metric, rounds []roundStats) {
	set := func(name string, f func(rs roundStats) float64) { setMetric(out, name, perRound(rounds, f)) }
	var setups []float64
	for _, rs := range rounds {
		for _, d := range rs.setups {
			setups = append(setups, d.Seconds())
		}
	}
	setMetric(out, "setup_s", median(setups))
	set("allocs_per_op", func(rs roundStats) float64 { return float64(rs.mallocs) / rs.ops() })
	setMetric(out, "rss_peak_mb", peakRSSMB())
	set("sim_cycles_per_op", func(rs roundStats) float64 { return float64(rs.sim.cycles) / rs.ops() })
	set("sim_energy_pj_per_op", func(rs roundStats) float64 { return rs.sim.energyPJ() / rs.ops() })
	set("sim_makespan_per_op", func(rs roundStats) float64 { return float64(rs.sim.makespan) / rs.ops() })
}

// hostTime derives throughput, latency, the share of operations served
// within the latency limit, and CPU per operation. On a shared virtual
// machine these drift by 10-25% between runs minutes apart, and latency
// by far more while the host steals the CPU, more than any bound a gate
// could hold, so they are per-layer metrics of the "host" layer.
func hostTime(out map[string]metric, w *workload, rounds []roundStats) {
	set := func(name string, f func(rs roundStats) float64) { setMetric(out, name, perRound(rounds, f)) }
	set("host.ops_per_s", func(rs roundStats) float64 { return rs.ops() / rs.wall.Seconds() })
	set("host.latency_p50_ms", func(rs roundStats) float64 { return quantile(rs.latencies(), 0.50) })
	set("host.latency_p99_ms", func(rs roundStats) float64 { return quantile(rs.latencies(), 0.99) })
	set("host.slo_ok_ratio", func(rs roundStats) float64 { return rs.sloOK(w.slo) / rs.ops() })
	set("host.cpu_us_per_op", func(rs roundStats) float64 { return us(rs.cpu) / rs.ops() })
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// refSink keeps refMops's loop from being optimised away.
var refSink uint64

// refMops times a fixed integer loop owned by the benchmark, in million
// iterations per second: how fast this host runs right now, to explain
// drift in the host-time metrics.
func refMops() float64 {
	const n = 8 << 20
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	refSink += x
	return n / d.Seconds() / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
