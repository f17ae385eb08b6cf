// Tests of the recorder's stream as its one aggregate, the hardware
// profiler, folds it: spans, marks, per-source cycles and the -metrics
// text report.
package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

// profiled returns a recorder whose sinks are a ring buffer and a
// profiler, on a config whose writes cost 1 pJ per bit.
func profiled() (*telemetry.Recorder, *telemetry.RingSink, *profile.Profiler) {
	cfg := params.DefaultConfig()
	cfg.Energy.WritePJ = 1
	ring, prof := telemetry.NewRingSink(64), profile.New(cfg)
	return telemetry.NewRecorder(cfg, ring, prof), ring, prof
}

func TestSpansNestPerSourceAndAggregate(t *testing.T) {
	r, ring, prof := profiled()
	r.Begin("u", "outer")
	r.Step("u", telemetry.OpWrite, 4)
	end := r.Span("u", "inner")
	r.Step("u", telemetry.OpWrite, 4)
	end()
	r.Step("u", telemetry.OpWrite, 4)
	r.End("u")
	r.End("u") // unmatched: ignored

	// Each End event carries its span's energy: the ledger's growth
	// since Begin, priced.
	var ends []telemetry.Event
	for _, e := range ring.Events() {
		if e.Phase == telemetry.PhaseEnd {
			ends = append(ends, e)
		}
	}
	if len(ends) != 2 || ends[0].Name != "inner" || ends[0].EnergyPJ != 4 || ends[1].Name != "outer" || ends[1].EnergyPJ != 12 {
		t.Errorf("End events %+v, want inner at 4 pJ then outer at 12 pJ", ends)
	}

	spans := prof.Totals().Spans
	inner, outer := spans["inner"], spans["outer"]
	if inner.Count != 1 || inner.Cycles != 1 {
		t.Errorf("inner span: count=%d cycles=%d, want 1/1", inner.Count, inner.Cycles)
	}
	if outer.Count != 1 || outer.Cycles != 3 {
		t.Errorf("outer span: count=%d cycles=%d, want 1/3", outer.Count, outer.Cycles)
	}
	if inner.EnergyPJ != 4 || outer.EnergyPJ != 12 {
		t.Errorf("span energy: inner=%v outer=%v, want 4/12", inner.EnergyPJ, outer.EnergyPJ)
	}
	if len(spans) != 2 {
		t.Errorf("spans %v, want inner and outer", spans)
	}
}

// TestSrcMetricsCyclesCountOnlySteps: a source's cycles count its
// control steps, not its instants, and only steps and instants create
// a source — a span alone does not.
func TestSrcMetricsCyclesCountOnlySteps(t *testing.T) {
	r, _, prof := profiled()
	r.Step("u", telemetry.OpShift, 1)
	r.Step("u", telemetry.OpLogic, 0)
	r.Move("u", telemetry.OpRowRead, 64)
	r.Fault("u", "shift-overshoot", 1)
	r.Span("pimc", "pimc-place")()
	snaps := prof.Snapshot()
	if len(snaps) != 1 || snaps[0].Src != "u" {
		t.Fatalf("sources %+v, want only u", snaps)
	}
	if got := snaps[0].Cycles; got != 2 {
		t.Fatalf("source cycles=%d, want 2 (instants must not count)", got)
	}
}

func TestMarksAggregateByName(t *testing.T) {
	r, _, prof := profiled()
	r.Mark("pimc", "moves-saved", 5)
	r.Mark("pimc", "moves-saved", 2)
	r.Mark("pimc", "shifts-saved", 40)
	r.Mark("pimc", "", 9) // unnamed marks are not aggregated

	marks := prof.Totals().Marks
	if mk := marks["moves-saved"]; mk.Count != 2 || mk.WiresTotal != 7 {
		t.Errorf("moves-saved = %+v, want count 2 total 7", mk)
	}
	if mk := marks["shifts-saved"]; mk.Count != 1 || mk.WiresTotal != 40 {
		t.Errorf("shifts-saved = %+v, want count 1 total 40", mk)
	}
	if len(marks) != 2 {
		t.Errorf("marks %v, want moves-saved and shifts-saved", marks)
	}
}

func TestMetricsWriteTextIsStable(t *testing.T) {
	r, _, prof := profiled()
	r.Step("b", telemetry.OpShift, 2)
	r.Step("a", telemetry.OpWrite, 4)
	r.Span("a", "op")()
	var first, second bytes.Buffer
	if err := prof.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("WriteText output is not deterministic")
	}
	for _, want := range []string{"## per op kind", "## per source", "## spans", "shift", "write", "\nop "} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("report missing %q:\n%s", want, first.String())
		}
	}
	// Sources render sorted: "a" before "b".
	if ai, bi := strings.Index(first.String(), "\na "), strings.Index(first.String(), "\nb "); ai == -1 || bi == -1 || ai > bi {
		t.Errorf("sources not sorted in report:\n%s", first.String())
	}
}
