package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbc"
	"repro/internal/telemetry"
)

// tiny runs a workload at one hundredth of its round size, for the
// minimum number of rounds.
func tiny(t *testing.T, w *workload, seed int64, traceOut string) *result {
	t.Helper()
	res, _, err := measure(w, options{seed: seed, trace: traceOut != "", traceOut: traceOut, scale: 0.01})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed", w.name, seed, res.Failed, res.Attempted)
	}
	return res
}

// TestSpecMatchesCode pins BENCHMARK.json to the metrics and workloads
// the code reports.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{sp.EndToEnd, endToEndMetrics}, {sp.PerLayer, layerMetrics}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.spec), len(c.code))
		}
		for i, m := range c.code {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestWorkloadsVerify runs every workload small: every op verifies,
// every end-to-end metric is reported with its unit, the simulated
// metrics repeat exactly for the same seed, and a second seed verifies
// too, with the same simulated cost, because seeds vary only values.
func TestWorkloadsVerify(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := tiny(t, w, 1, ""), tiny(t, w, 1, ""), tiny(t, w, 2, "")
			if len(a.Metrics) != len(endToEndMetrics) {
				t.Errorf("%d metrics reported, want %d", len(a.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				got, ok := a.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: got %+v, want unit %s", m.name, got, m.unit)
				}
				if !strings.HasPrefix(m.name, "sim_") {
					continue
				}
				if m.name == "sim_makespan_per_op" && w == serveShared {
					continue // coalescing makes it depend on timing
				}
				if b.Metrics[m.name] != got || other.Metrics[m.name] != got {
					t.Errorf("%s: %v, %v with the same seed, %v with another", m.name,
						got.Value, b.Metrics[m.name].Value, other.Metrics[m.name].Value)
				}
			}
		})
	}
}

// TestCheckerCatchesFlippedBit flips one bit of one recorded output of
// each workload after its round ran: the checker must count exactly
// that call as failed.
func TestCheckerCatchesFlippedBit(t *testing.T) {
	flipRow := func(r dbc.Row) dbc.Row {
		c := r.Clone()
		c.Words[0] ^= 1
		return c
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.prepare(env{seed: 1, ops: max(1, w.ops/100)})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.build(); err != nil {
				t.Fatal(err)
			}
			rec := &record{}
			r.run(rec)
			r.close()
			switch r := r.(type) {
			case *serveRound:
				rows := r.clients[0].out[1].rows
				rows[0] = flipRow(rows[0])
			case *engineRound:
				r.got[0] = flipRow(r.got[0])
			case *corpusRound:
				r.got[0] = flipRow(r.got[0])
			default:
				t.Fatalf("no flip for %T", r)
			}
			r.verify(rec)
			var failed int32
			for _, c := range rec.calls {
				failed += c.failed
			}
			if failed != 1 {
				t.Errorf("flipped bit counted as %d failed ops, want 1", failed)
			}
		})
	}
}

// TestTracedRun checks the traced run of every workload: every
// per-layer metric with its unit, a span file that is valid Chrome
// trace_event JSON, and device steps per op that, with the unattributed
// residual, add up to the untraced run's simulated cycles per op.
func TestTracedRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.json")
			res := tiny(t, w, 1, path)
			for _, m := range layerMetrics {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := telemetry.ValidateChromeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Error("empty span file")
			}
			var sum float64
			for _, m := range layerMetrics {
				if strings.HasPrefix(m.name, "device.") {
					sum += res.Metrics[m.name].Value
				}
			}
			cycles := tiny(t, w, 1, "").Metrics["sim_cycles_per_op"].Value
			if math.Abs(sum-cycles) > 1e-9*cycles {
				t.Errorf("device steps + unattributed = %v per op, sim_cycles_per_op = %v", sum, cycles)
			}
		})
	}
}
