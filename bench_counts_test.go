package coruscant

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/params"
)

// benchRow is the device-count side of one recorded benchmark row: the
// corpus totals of BENCH_compile.json's CompiledExec rows and the
// per-program makespan and cycles of BENCH_pipeline.json's rows.
type benchRow struct {
	Moves    int `json:"moves_corpus"`
	Shifts   int `json:"shifts_corpus"`
	Cycles   int `json:"cycles_corpus"`
	Makespan int `json:"makespan"`
	RunCyc   int `json:"cycles"`
}

// benchRows reads a BENCH file's current results, keyed by benchmark.
func benchRows(t *testing.T, path string) map[string]benchRow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Results []struct {
			Benchmark string `json:"benchmark"`
			benchRow
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rows := make(map[string]benchRow, len(file.Results))
	for _, r := range file.Results {
		rows[r.Benchmark] = r.benchRow
	}
	return rows
}

// TestBenchDeviceCounts gates the device counts BENCH_compile.json and
// BENCH_pipeline.json record. It re-measures the example corpus through
// runCorpus, the pass BenchmarkCompiledExec and BenchmarkPipeline
// measure, and requires every recorded row exactly: row copies, shift
// steps and cycles per level, makespan and cycles per program and
// level. These counts do not depend on the host, so any drift is a
// change in what the compiled plans do on the device.
func TestBenchDeviceCounts(t *testing.T) {
	names, progs := benchCorpus(t)

	compiled := benchRows(t, "BENCH_compile.json")
	for _, level := range []int{0, 1, 2} {
		name := fmt.Sprintf("CompiledExec/O%d", level)
		want, ok := compiled[name]
		if !ok {
			t.Errorf("BENCH_compile.json has no %s row", name)
			continue
		}
		_, m := runCorpus(t, benchCompileConfig(), progs, level, seedInputs)
		stats := m.Stats()
		got := benchRow{Moves: m.Moves().RowCopies, Shifts: stats.ShiftSteps, Cycles: int(stats.Cycles())}
		if got != want {
			t.Errorf("%s: measured moves/shifts/cycles %d/%d/%d, recorded %d/%d/%d",
				name, got.Moves, got.Shifts, got.Cycles, want.Moves, want.Shifts, want.Cycles)
		}
	}

	pipelined := benchRows(t, "BENCH_pipeline.json")
	for i, prog := range names {
		for _, level := range []int{1, 2} {
			name := fmt.Sprintf("Pipeline/%s/O%d", prog, level)
			want, ok := pipelined[name]
			if !ok {
				t.Errorf("BENCH_pipeline.json has no %s row", name)
				continue
			}
			cycles, makespan := pipelineRun(t, params.DefaultConfig(), progs[i], level)
			got := benchRow{Makespan: int(makespan), RunCyc: int(cycles)}
			if got != want {
				t.Errorf("%s: measured makespan/cycles %d/%d, recorded %d/%d",
					name, got.Makespan, got.RunCyc, want.Makespan, want.RunCyc)
			}
		}
	}
}
