// Pipelined-schedule benchmarks (recorded in BENCH_pipeline.json): every
// example pimasm program compiled at -O1 (placement-aware, level-barrier
// schedule) and -O2 (pipelined windows) and executed on a fresh memory.
// ns/op tracks end-to-end compile+run latency; the interesting outputs
// are the custom metrics — `makespan` (critical-path cycles, what -O2
// shrinks by overlapping staging with compute) and `cycles` (the serial
// device-cycle sum, which pipelining must NOT change: the same work is
// done, only scheduled wider).
package coruscant

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// seedSorted writes deterministic 8-bit lanes into the program's load
// rows in address order, each row from its own seeded stream.
func seedSorted(tb testing.TB, m *memory.Memory, res *compile.Result, _ int) {
	tb.Helper()
	g := m.Config().Geometry
	inputs := append([]compile.Output(nil), res.Inputs...)
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Addr.Linear(g) < inputs[j].Addr.Linear(g) })
	for i, in := range inputs {
		rng := rand.New(rand.NewSource(int64(i)*2654435761 + 99))
		lanes := make([]uint64, g.TrackWidth/8)
		for l := range lanes {
			lanes[l] = rng.Uint64() & 0xFF
		}
		if err := m.WriteRow(in.Addr, pim.MustPackLanes(lanes, 8, g.TrackWidth)); err != nil {
			tb.Fatal(err)
		}
	}
}

// pipelineRun compiles src at the given level, seeds its load rows
// with seedSorted, runs the plan on a fresh memory, and returns the
// run's telemetry cycle count and makespan.
func pipelineRun(tb testing.TB, cfg params.Config, src string, level int) (uint64, uint64) {
	tb.Helper()
	_, m := runCorpus(tb, cfg, []string{src}, level, seedSorted)
	return m.Recorder().Cycle(), m.Recorder().Makespan()
}

// BenchmarkPipeline runs the example corpus at -O1 and -O2 and reports
// makespan and cycles alongside wall-clock compile+run cost. The -O2
// rows' makespan against the matching -O1 rows is the pinned claim
// (also asserted by compile's TestPipelinedCorpus: never worse per
// program, ≥10% shorter over the corpus).
func BenchmarkPipeline(b *testing.B) {
	cfg := params.DefaultConfig()
	names, progs := benchCorpus(b)
	for i, name := range names {
		src := progs[i]
		for _, level := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/O%d", name, level), func(b *testing.B) {
				var cycles, makespan uint64
				for i := 0; i < b.N; i++ {
					cycles, makespan = pipelineRun(b, cfg, src, level)
				}
				b.ReportMetric(float64(makespan), "makespan")
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}
