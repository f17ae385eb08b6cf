package telemetry

import (
	"fmt"
	"math"
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

// TestNoSinkRecorderAllocatesNothing: a recorder with no sink keeps
// only its clock, timeline and ledger. It builds no event, so no hook
// allocates, on a source never seen before included, and Begin keeps no
// span frame.
func TestNoSinkRecorderAllocatesNothing(t *testing.T) {
	r := NewRecorder(testConfig())
	srcs := make([]Source, 512)
	for i := range srcs {
		srcs[i] = Source(fmt.Sprintf("b0.s0.t0.d%d", i))
	}
	next := 0
	fresh := func() Source {
		next++
		return srcs[next-1]
	}
	for _, c := range []struct {
		name string
		hook func()
	}{
		{"step on a fresh source", func() { r.Step(fresh(), OpShift, 64) }},
		{"fault", func() { r.Fault("u", "tr-level", 1) }},
		{"move", func() { r.Move("u", OpRowRead, 64) }},
		{"mark", func() { r.Mark("u", "retry:add", 1) }},
		{"window markers", func() { r.WindowBegin(); r.WindowLane(); r.WindowEnd() }},
		{"begin/end on a fresh source", func() { src := fresh(); r.Begin(src, "add"); r.End(src) }},
		{"span closer", func() { r.Span("u", "cnn-binary")() }},
	} {
		if n := testing.AllocsPerRun(100, c.hook); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
	if len(r.spans) != 0 {
		t.Errorf("recorder with no sink kept span frames for %d sources", len(r.spans))
	}
	if got := r.Metrics().Count(OpMark); got != 101 {
		t.Errorf("ledger counted %d marks, want 101", got)
	}
}
