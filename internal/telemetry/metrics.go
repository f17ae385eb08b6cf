package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Hist is a log2-bucketed histogram of non-negative integer samples:
// bucket 0 counts zeros, bucket i counts values in [2^(i-1), 2^i), and
// the last bucket absorbs everything larger. Alongside the buckets it
// keeps the exact sum and maximum, so the summary accessors (Sum, Max,
// Mean, P50, P95) don't lose more precision than the bucketing itself.
type Hist struct {
	Buckets [18]uint64
	SumV    uint64 // exact sum of all observed samples
	MaxV    uint64 // exact maximum observed sample
}

// Observe adds one sample.
func (h *Hist) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.SumV += v
	if v > h.MaxV {
		h.MaxV = v
	}
}

// Total returns the number of samples observed.
func (h Hist) Total() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Sum returns the exact sum of the observed samples.
func (h Hist) Sum() uint64 { return h.SumV }

// Max returns the exact maximum observed sample (0 when empty).
func (h Hist) Max() uint64 { return h.MaxV }

// Mean returns the exact mean of the observed samples (0 when empty).
func (h Hist) Mean() float64 {
	n := h.Total()
	if n == 0 {
		return 0
	}
	return float64(h.SumV) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile: the
// upper edge of the first bucket whose cumulative count reaches
// q×Total, clamped to the exact maximum. q outside (0,1] is clamped.
// The estimate is exact for bucket 0 (zeros) and otherwise within the
// 2× resolution of the log2 bucketing.
func (h Hist) Quantile(q float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			edge := (uint64(1) << i) - 1 // largest value of [2^(i-1), 2^i)
			if edge > h.MaxV {
				return h.MaxV
			}
			return edge
		}
	}
	return h.MaxV
}

// P50 returns the upper-bound median estimate (see Quantile).
func (h Hist) P50() uint64 { return h.Quantile(0.50) }

// P95 returns the upper-bound 95th-percentile estimate (see Quantile).
func (h Hist) P95() uint64 { return h.Quantile(0.95) }

// String renders the non-empty buckets compactly, e.g.
// "[1,2):3 [4,8):1".
func (h Hist) String() string {
	out := ""
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		switch {
		case i == 0:
			out += fmt.Sprintf("0:%d", c)
		case i == len(h.Buckets)-1:
			out += fmt.Sprintf("[%d,∞):%d", uint64(1)<<(i-1), c)
		default:
			out += fmt.Sprintf("[%d,%d):%d", uint64(1)<<(i-1), uint64(1)<<i, c)
		}
	}
	if out == "" {
		return "(empty)"
	}
	return out
}

// OpMetrics aggregates the primitive steps of one op kind.
type OpMetrics struct {
	Steps         uint64  // control steps recorded (events for instants)
	WiresTotal    uint64  // total affected nanowires/bits
	EnergyPJTotal float64 // total energy
	WiresHist     Hist    // distribution of wires touched per step
	EnergyHist    Hist    // distribution of per-step energy (rounded pJ)
}

// SrcMetrics aggregates the events of one source (typically one DBC).
type SrcMetrics struct {
	Steps    [numOps]uint64
	EnergyPJ float64
}

// Cycles returns the control-step cycles attributed to the source.
func (s SrcMetrics) Cycles() uint64 {
	var n uint64
	for op := OpShift; op <= OpStall; op++ {
		n += s.Steps[op]
	}
	return n
}

// SpanMetrics aggregates the completed spans of one name.
type SpanMetrics struct {
	Count       uint64
	TotalCycles uint64
	TotalPJ     float64
	CycleHist   Hist // span latency in device cycles
	EnergyHist  Hist // span energy in rounded pJ
}

// MarkMetrics aggregates the tagged control events of one mark name.
type MarkMetrics struct {
	Count      uint64
	WiresTotal uint64 // sum of the marks' wires payloads (e.g. rows saved)
}

// Metrics is the aggregate view of a telemetry stream: counters and
// histograms per op kind, per source, per span name and per mark name.
// The zero value is not ready; use NewMetrics. All methods are safe for
// concurrent use.
type Metrics struct {
	mu     sync.Mutex
	perOp  [numOps]OpMetrics
	perSrc map[Source]*SrcMetrics
	spans  map[string]*SpanMetrics
	marks  map[string]*MarkMetrics
}

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics {
	return &Metrics{
		perSrc: make(map[Source]*SrcMetrics),
		spans:  make(map[string]*SpanMetrics),
		marks:  make(map[string]*MarkMetrics),
	}
}

// record folds one event in. Span begin/end events are handled by
// recordSpan instead.
func (m *Metrics) record(e Event) {
	m.mu.Lock()
	om := &m.perOp[e.Op]
	om.Steps++
	om.WiresTotal += uint64(e.Wires)
	om.EnergyPJTotal += e.EnergyPJ
	om.WiresHist.Observe(uint64(e.Wires))
	om.EnergyHist.Observe(uint64(math.Round(e.EnergyPJ)))
	sm := m.perSrc[e.Src]
	if sm == nil {
		sm = &SrcMetrics{}
		m.perSrc[e.Src] = sm
	}
	sm.Steps[e.Op]++
	sm.EnergyPJ += e.EnergyPJ
	if e.Op == OpMark && e.Name != "" {
		mk := m.marks[e.Name]
		if mk == nil {
			mk = &MarkMetrics{}
			m.marks[e.Name] = mk
		}
		mk.Count++
		mk.WiresTotal += uint64(e.Wires)
	}
	m.mu.Unlock()
}

// recordSpan folds one completed span in.
func (m *Metrics) recordSpan(name string, cycles uint64, pj float64) {
	m.mu.Lock()
	sp := m.spans[name]
	if sp == nil {
		sp = &SpanMetrics{}
		m.spans[name] = sp
	}
	sp.Count++
	sp.TotalCycles += cycles
	sp.TotalPJ += pj
	sp.CycleHist.Observe(cycles)
	sp.EnergyHist.Observe(uint64(math.Round(pj)))
	m.mu.Unlock()
}

// Op returns a copy of the aggregate for one op kind.
func (m *Metrics) Op(op Op) OpMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perOp[op]
}

// Count returns the event count of one op kind.
func (m *Metrics) Count(op Op) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perOp[op].Steps
}

// Sources returns a copy of the per-source aggregates.
func (m *Metrics) Sources() map[Source]SrcMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Source]SrcMetrics, len(m.perSrc))
	for s, v := range m.perSrc {
		out[s] = *v
	}
	return out
}

// Mark returns the aggregate for one mark name (zero value when the
// name was never marked).
func (m *Metrics) Mark(name string) MarkMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mk := m.marks[name]; mk != nil {
		return *mk
	}
	return MarkMetrics{}
}

// MarkNames returns the names of all recorded marks, sorted.
func (m *Metrics) MarkNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.marks))
	for n := range m.marks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Span returns a copy of the aggregate for one span name (zero value
// when the name never completed a span).
func (m *Metrics) Span(name string) SpanMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sp := m.spans[name]; sp != nil {
		return *sp
	}
	return SpanMetrics{}
}

// SpanNames returns the names of all completed spans, sorted.
func (m *Metrics) SpanNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.spans))
	for n := range m.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteText renders the metrics as a human-readable report: per-op
// counters, per-source rollups and span latency/energy histograms, in
// stable (sorted) order.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# telemetry metrics\n\n## per op kind\n"); err != nil {
		return err
	}
	for op := Op(0); op < numOps; op++ {
		om := m.perOp[op]
		if om.Steps == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-10s steps=%d wires=%d energy=%.1fpJ wires-p50=%d p95=%d max=%d wires-hist=%s\n",
			op, om.Steps, om.WiresTotal, om.EnergyPJTotal,
			om.WiresHist.P50(), om.WiresHist.P95(), om.WiresHist.Max(), om.WiresHist); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n## per source\n"); err != nil {
		return err
	}
	srcs := make([]string, 0, len(m.perSrc))
	for s := range m.perSrc {
		srcs = append(srcs, string(s))
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		sm := m.perSrc[Source(s)]
		if _, err := fmt.Fprintf(w, "%-24s cycles=%d energy=%.1fpJ shifts=%d trs=%d writes=%d reads=%d tws=%d faults=%d moves=%d\n",
			s, sm.Cycles(), sm.EnergyPJ,
			sm.Steps[OpShift], sm.Steps[OpTR], sm.Steps[OpWrite], sm.Steps[OpRead], sm.Steps[OpTW],
			sm.Steps[OpFault],
			sm.Steps[OpRowRead]+sm.Steps[OpRowWrite]+sm.Steps[OpRowCopy]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n## spans\n"); err != nil {
		return err
	}
	names := make([]string, 0, len(m.spans))
	for n := range m.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sp := m.spans[n]
		if _, err := fmt.Fprintf(w, "%-24s count=%d cycles=%d energy=%.1fpJ cycle-p50=%d p95=%d max=%d cycle-hist=%s\n",
			n, sp.Count, sp.TotalCycles, sp.TotalPJ,
			sp.CycleHist.P50(), sp.CycleHist.P95(), sp.CycleHist.Max(), sp.CycleHist); err != nil {
			return err
		}
	}
	if len(m.marks) > 0 {
		if _, err := fmt.Fprintf(w, "\n## marks\n"); err != nil {
			return err
		}
		names = names[:0]
		for n := range m.marks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			mk := m.marks[n]
			if _, err := fmt.Fprintf(w, "%-24s count=%d total=%d\n", n, mk.Count, mk.WiresTotal); err != nil {
				return err
			}
		}
	}
	return nil
}
