package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/telemetry"
)

// WriteText writes the aggregate as the human-readable report behind
// -metrics: per-kind counters and wire histograms, per-source rollups,
// span latency/energy histograms and named marks, in stable (sorted)
// order.
func (p *Profiler) WriteText(w io.Writer) error {
	p.mu.Lock()
	t, snaps := p.totals(), p.snapshot()
	p.mu.Unlock()

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# telemetry metrics\n\n## per op kind\n")
	for op, o := range t.Ops {
		if o.Steps == 0 {
			continue
		}
		fmt.Fprintf(bw, "%-10s steps=%d wires=%d energy=%.1fpJ wires-p50=%d p95=%d max=%d wires-hist=%s\n",
			telemetry.Op(op), o.Steps, o.WiresTotal, o.EnergyPJ,
			o.Wires.P50(), o.Wires.P95(), o.Wires.Max(), o.Wires)
	}
	fmt.Fprintf(bw, "\n## per source\n")
	for _, s := range snaps {
		fmt.Fprintf(bw, "%-24s cycles=%d energy=%.1fpJ shifts=%d trs=%d writes=%d reads=%d tws=%d faults=%d moves=%d\n",
			s.Src, s.Cycles, s.TotalPJ,
			s.Steps[telemetry.OpShift], s.Steps[telemetry.OpTR], s.Steps[telemetry.OpWrite],
			s.Steps[telemetry.OpRead], s.Steps[telemetry.OpTW], s.Steps[telemetry.OpFault],
			s.Steps[telemetry.OpRowRead]+s.Steps[telemetry.OpRowWrite]+s.Steps[telemetry.OpRowCopy])
	}
	fmt.Fprintf(bw, "\n## spans\n")
	for _, n := range sortedNames(t.Spans) {
		sp := t.Spans[n]
		fmt.Fprintf(bw, "%-24s count=%d cycles=%d energy=%.1fpJ cycle-p50=%d p95=%d max=%d cycle-hist=%s\n",
			n, sp.Count, sp.Cycles, sp.EnergyPJ,
			sp.CycleHist.P50(), sp.CycleHist.P95(), sp.CycleHist.Max(), sp.CycleHist)
	}
	if len(t.Marks) > 0 {
		fmt.Fprintf(bw, "\n## marks\n")
		for _, n := range sortedNames(t.Marks) {
			mk := t.Marks[n]
			fmt.Fprintf(bw, "%-24s count=%d total=%d\n", n, mk.Count, mk.WiresTotal)
		}
	}
	return bw.Flush()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
