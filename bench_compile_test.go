// pimc compiler benchmarks (recorded in BENCH_compile.json): a fixed
// three-program corpus compiled at -O0 (naive single-DBC staging), -O1
// (placement-aware) and -O2 (pipelined, what compile-corpus and the
// loadgen kernel run), measuring compile latency and the measured cost
// of running the compiled plans — row-buffer moves, racetrack shift
// steps and device cycles, reported as custom metrics. The -O1 rows
// must come in under naive on moves and cycles; the differential tests
// in internal/isa/compile prove the results are bit-identical.
package coruscant

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// benchCorpus loads the fixed program set from examples/pimasm in
// filename order: mixed arithmetic on one bank, the PIRM-style ops
// (div/mod/shifts/fma), and cross-bank traffic that forces staging
// moves. It returns each program's file name and source. Keeping the
// corpus on disk gives `pimasm vet` (and make lint's sweep) the same
// programs the benchmarks measure.
func benchCorpus(tb testing.TB) (names, progs []string) {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("examples", "pimasm", "*.pimasm"))
	if err != nil {
		tb.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) != 3 {
		tb.Fatalf("examples/pimasm holds %d programs, want the fixed 3-program corpus", len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, filepath.Base(p))
		progs = append(progs, string(src))
	}
	return names, progs
}

func benchCompileConfig() params.Config {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	return cfg
}

// seedInputs writes deterministic lane values into every load row of a
// compiled program.
func seedInputs(tb testing.TB, m *memory.Memory, res *compile.Result, prog int) {
	tb.Helper()
	for i, in := range res.Inputs {
		vals := make([]uint64, 8)
		for l := range vals {
			vals[l] = uint64((7*i + 3*l + 11*prog + 1) % 256)
		}
		row, err := pim.PackLanes(vals, 8, 64)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.WriteRow(in.Addr, row); err != nil {
			tb.Fatal(err)
		}
	}
}

// runCorpus compiles every program at the level, seeds each one's load
// rows (seed gets the program's index), then runs the plans in order on
// one fresh memory of cfg. It is the measured pass behind the device
// counts of BenchmarkCompiledExec (the corpus on one memory),
// BenchmarkPipeline (one program per memory) and TestBenchDeviceCounts.
func runCorpus(tb testing.TB, cfg params.Config, progs []string, level int,
	seed func(testing.TB, *memory.Memory, *compile.Result, int)) ([]*compile.Plan, *memory.Memory) {
	tb.Helper()
	m, err := memory.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	plans := make([]*compile.Plan, len(progs))
	for i, src := range progs {
		res, err := compile.Compile(src, cfg, compile.Options{Level: level})
		if err != nil {
			tb.Fatalf("compile -O%d: %v", level, err)
		}
		seed(tb, m, res, i)
		plans[i] = res.Plan
	}
	for _, p := range plans {
		if err := p.Run(m); err != nil {
			tb.Fatalf("run -O%d: %v", level, err)
		}
	}
	return plans, m
}

// BenchmarkCompileProgram measures compile latency over the corpus at
// each optimization level.
func BenchmarkCompileProgram(b *testing.B) {
	cfg := benchCompileConfig()
	_, corpus := benchCorpus(b)
	for _, level := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("O%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range corpus {
					if _, err := compile.Compile(src, cfg, compile.Options{Level: level}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCompiledExec measures running the compiled corpus. The
// moves/shifts/cycles metrics are the measured totals of one corpus
// pass on a fresh memory — the numbers the acceptance criterion
// compares across levels; ns/op times repeated plan execution (plans
// are idempotent: stores never alias loads).
func BenchmarkCompiledExec(b *testing.B) {
	cfg := benchCompileConfig()
	_, corpus := benchCorpus(b)
	for _, level := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("O%d", level), func(b *testing.B) {
			// One instrumented corpus pass for the cost metrics.
			plans, mm := runCorpus(b, cfg, corpus, level, seedInputs)
			moves := mm.Moves()
			stats := mm.Stats()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					if err := p.Run(mm); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			// ResetTimer deletes user metrics, so report them after the
			// timed loop.
			b.ReportMetric(float64(moves.RowCopies), "moves/corpus")
			b.ReportMetric(float64(stats.ShiftSteps), "shifts/corpus")
			b.ReportMetric(float64(stats.Cycles()), "cycles/corpus")
		})
	}
}
