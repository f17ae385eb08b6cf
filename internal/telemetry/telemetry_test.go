package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/params"
)

// testConfig returns a config with a simple energy table so expected
// energies are exact in tests.
func testConfig() params.Config {
	cfg := params.DefaultConfig()
	cfg.Energy.WritePJ = 1
	cfg.Energy.ReadPJ = 2
	cfg.Energy.ShiftPJ = 0.5
	cfg.Energy.TWPJ = 3
	cfg.Energy.TR3PJ = 4
	cfg.Energy.TR5PJ = 5
	cfg.Energy.TR7PJ = 6
	return cfg
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Step("s", OpShift, 4)
	r.Fault("s", "tr", 1)
	r.Move("s", OpRowRead, 64)
	r.Begin("s", "op")
	r.End("s")
	r.Span("s", "op")()
	if r.Cycle() != 0 || r.EnergyPJ() != 0 {
		t.Fatalf("nil recorder reports cycle=%d energy=%v", r.Cycle(), r.EnergyPJ())
	}
	if r.Metrics() != nil {
		t.Fatal("nil recorder has non-nil metrics")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStepAdvancesClockAndPricesEnergy(t *testing.T) {
	r := NewRecorder(testConfig()) // TRD=7 by default
	steps := []struct {
		op     Op
		wires  int
		energy float64
	}{
		{OpShift, 10, 5}, // 10 * 0.5
		{OpTR, 3, 18},    // 3 * TR7PJ
		{OpWrite, 7, 7},  // 7 * 1
		{OpRead, 2, 4},   // 2 * 2
		{OpTW, 5, 15},    // 5 * 3
		{OpCopy, 4, 12},  // 4 * (ReadPJ + WritePJ)
		{OpLogic, 0, 0},  // logic steps carry no array energy
	}
	var want float64
	for i, s := range steps {
		r.Step("u", s.op, s.wires)
		want += s.energy
		if got := r.Cycle(); got != uint64(i+1) {
			t.Fatalf("after step %d: cycle=%d, want %d", i, got, i+1)
		}
	}
	if got := r.EnergyPJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy=%v, want %v", got, want)
	}
	for _, s := range steps {
		om := r.Metrics().Op(s.op)
		if om.Steps != 1 || om.WiresTotal != uint64(s.wires) {
			t.Errorf("%v metrics: steps=%d wires=%d, want 1/%d", s.op, om.Steps, om.WiresTotal, s.wires)
		}
	}
}

func TestInstantsDoNotAdvanceClock(t *testing.T) {
	r := NewRecorder(testConfig())
	r.Step("u", OpWrite, 8)
	r.Fault("u", "tr-level", 2)
	r.Move("u", OpRowRead, 64)
	r.Move("u", OpRowWrite, 64)
	r.Move("u", OpRowCopy, 64)
	if got := r.Cycle(); got != 1 {
		t.Fatalf("cycle=%d after instants, want 1", got)
	}
	m := r.Metrics()
	for _, op := range []Op{OpFault, OpRowRead, OpRowWrite, OpRowCopy} {
		if m.Count(op) != 1 {
			t.Errorf("%v count=%d, want 1", op, m.Count(op))
		}
	}
}

func TestSpansNestPerSourceAndAggregate(t *testing.T) {
	r := NewRecorder(testConfig())
	r.Begin("u", "outer")
	r.Step("u", OpWrite, 4)
	end := r.Span("u", "inner")
	r.Step("u", OpWrite, 4)
	end()
	r.Step("u", OpWrite, 4)
	r.End("u")
	r.End("u") // unmatched: ignored

	inner := r.Metrics().Span("inner")
	outer := r.Metrics().Span("outer")
	if inner.Count != 1 || inner.TotalCycles != 1 {
		t.Errorf("inner span: count=%d cycles=%d, want 1/1", inner.Count, inner.TotalCycles)
	}
	if outer.Count != 1 || outer.TotalCycles != 3 {
		t.Errorf("outer span: count=%d cycles=%d, want 1/3", outer.Count, outer.TotalCycles)
	}
	if inner.TotalPJ != 4 || outer.TotalPJ != 12 {
		t.Errorf("span energy: inner=%v outer=%v, want 4/12", inner.TotalPJ, outer.TotalPJ)
	}
	if names := r.Metrics().SpanNames(); len(names) != 2 || names[0] != "inner" || names[1] != "outer" {
		t.Errorf("SpanNames=%v", names)
	}
}

func TestRecorderFansOutToAllSinks(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	r := NewRecorder(testConfig(), a, b)
	r.Step("u", OpTR, 3)
	r.Fault("u", "tr-level", 1)
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("sink lengths %d/%d, want 2/2", a.Len(), b.Len())
	}
	ev := a.Events()
	if ev[0].Op != OpTR || ev[0].Phase != PhaseStep {
		t.Errorf("first event %+v", ev[0])
	}
	if ev[1].Op != OpFault || ev[1].Name != "tr-level" || ev[1].Cycle != 1 {
		t.Errorf("fault event %+v", ev[1])
	}
}

func TestSrcMetricsCyclesCountOnlySteps(t *testing.T) {
	r := NewRecorder(testConfig())
	r.Step("u", OpShift, 1)
	r.Step("u", OpLogic, 0)
	r.Move("u", OpRowRead, 64)
	r.Fault("u", "shift-overshoot", 1)
	sm := r.Metrics().Sources()["u"]
	if got := sm.Cycles(); got != 2 {
		t.Fatalf("source cycles=%d, want 2 (instants must not count)", got)
	}
}

func TestRingSinkEvictsOldest(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Cycle: uint64(i)})
	}
	ev := s.Events()
	if len(ev) != 3 || ev[0].Cycle != 2 || ev[2].Cycle != 4 {
		t.Fatalf("ring events %+v, want cycles 2..4", ev)
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d, want 3", s.Len())
	}
}

func TestMarksAggregateByName(t *testing.T) {
	r := NewRecorder(testConfig())
	r.Mark("pimc", "moves-saved", 5)
	r.Mark("pimc", "moves-saved", 2)
	r.Mark("pimc", "shifts-saved", 40)
	r.Mark("pimc", "", 9) // unnamed marks are not aggregated

	m := r.Metrics()
	if mk := m.Mark("moves-saved"); mk.Count != 2 || mk.WiresTotal != 7 {
		t.Errorf("moves-saved = %+v, want count 2 total 7", mk)
	}
	if mk := m.Mark("shifts-saved"); mk.Count != 1 || mk.WiresTotal != 40 {
		t.Errorf("shifts-saved = %+v, want count 1 total 40", mk)
	}
	if mk := m.Mark("absent"); mk != (MarkMetrics{}) {
		t.Errorf("absent mark = %+v, want zero", mk)
	}
	names := m.MarkNames()
	if len(names) != 2 || names[0] != "moves-saved" || names[1] != "shifts-saved" {
		t.Errorf("MarkNames = %v", names)
	}
}

func TestMetricsWriteTextIsStable(t *testing.T) {
	r := NewRecorder(testConfig())
	r.Step("b", OpShift, 2)
	r.Step("a", OpWrite, 4)
	r.Span("a", "op")()
	var first, second bytes.Buffer
	if err := r.Metrics().WriteText(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.Metrics().WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("WriteText output is not deterministic")
	}
	for _, want := range []string{"## per op kind", "## per source", "## spans", "shift", "write"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("report missing %q:\n%s", want, first.String())
		}
	}
	// Sources render sorted: "a" before "b".
	if ai, bi := strings.Index(first.String(), "\na "), strings.Index(first.String(), "\nb "); ai == -1 || bi == -1 || ai > bi {
		t.Errorf("sources not sorted in report:\n%s", first.String())
	}
}
