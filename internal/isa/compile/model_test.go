package compile

import (
	"cmp"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

// shiftSink counts, from a recorder's event stream, the shift steps
// each DBC takes, keyed like Result.ShiftsByDBC.
type shiftSink struct {
	mu     sync.Mutex
	shifts map[string]int
}

func (s *shiftSink) Emit(e telemetry.Event) {
	if e.Op != telemetry.OpShift || e.Phase != telemetry.PhaseStep {
		return
	}
	s.mu.Lock()
	s.shifts[string(e.Src)]++
	s.mu.Unlock()
}

func (s *shiftSink) Close() error { return nil }

func (s *shiftSink) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.shifts)
}

// seededInput is one load row the test writes before running a plan.
type seededInput struct {
	addr isa.Addr
	row  dbc.Row
}

// checkModel compiles src at the level, writes the inputs to a fresh
// memory in address order, runs the plan, and holds the plan's price to
// the measured run exactly: row copies, cycles, makespan and every
// DBC's shift steps. The pricer is warmed with the same seeding writes,
// so it prices the plan from the heads they left. It returns the
// predicted and measured shift totals.
func checkModel(t *testing.T, cfg params.Config, name, src string, inputs []seededInput, level int) (pred, meas int) {
	t.Helper()
	res, err := Compile(src, cfg, Options{Level: level})
	if err != nil {
		t.Fatalf("%s -O%d: compile: %v", name, level, err)
	}
	sink := &shiftSink{shifts: make(map[string]int)}
	rec := telemetry.NewRecorder(cfg, sink)
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTelemetry(rec)
	seed := make([]memory.Request, len(inputs))
	for i, in := range inputs {
		seed[i] = memory.Request{Kind: memory.KindWrite, Dst: in.addr, Row: in.row}
	}
	slices.SortFunc(seed, func(a, b memory.Request) int {
		return cmp.Compare(a.Dst.Linear(cfg.Geometry), b.Dst.Linear(cfg.Geometry))
	})
	for _, r := range seed {
		if err := m.WriteRow(r.Dst, r.Row); err != nil {
			t.Fatal(err)
		}
	}
	pr := memory.NewPricer(cfg)
	pr.Window(seed)
	predBefore, measBefore := pr.ShiftsByDBC(), sink.snapshot()
	cycles0, span0, copies0 := rec.Cycle(), rec.Makespan(), m.Moves().RowCopies
	if err := res.Plan.Run(m); err != nil {
		t.Fatalf("%s -O%d: run: %v", name, level, err)
	}
	cycles, span, copies := int(rec.Cycle()-cycles0), int(rec.Makespan()-span0), m.Moves().RowCopies-copies0
	st, err := res.Plan.price(pr)
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossDBCMoves != copies || st.Cycles != cycles || st.Makespan != span {
		t.Errorf("%s -O%d: predicted %d row copies, %d cycles and makespan %d, measured %d, %d and %d",
			name, level, st.CrossDBCMoves, st.Cycles, st.Makespan, copies, cycles, span)
	}
	predicted, measured := pr.ShiftsByDBC(), sink.snapshot()
	for src := range measured {
		if _, ok := predicted[src]; !ok {
			predicted[src] = 0
		}
	}
	for src, after := range predicted {
		p, got := after-predBefore[src], measured[src]-measBefore[src]
		if p != got {
			t.Errorf("%s -O%d: %s predicted %d shift steps, measured %d", name, level, src, p, got)
		}
		pred += p
		meas += got
	}
	return pred, meas
}

// TestCostModelMatchesRun holds the price of pimc's plans to measured
// runs of the example corpus and of random DAGs, at -O0, -O1 and -O2,
// per DBC and to the step.
func TestCostModelMatchesRun(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "pimasm", "*.pimasm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("example corpus not found: %v", err)
	}
	var pred, meas int
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := testCfg(trd)
		width := cfg.Geometry.TrackWidth
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compile(string(src), cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			var inputs []seededInput
			for _, in := range res.Inputs {
				lanes := make([]uint64, width/8)
				for l := range lanes {
					lanes[l] = rng.Uint64() & 0xFF
				}
				inputs = append(inputs, seededInput{in.Addr, pim.MustPackLanes(lanes, 8, width)})
			}
			for _, level := range []int{0, 1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/"+filepath.Base(f), string(src), inputs, level)
				pred, meas = pred+p, meas+m
			}
		}
		rng := rand.New(rand.NewSource(int64(trd)))
		for trial := 0; trial < 18; trial++ {
			bs := []int{8, 16}[rng.Intn(2)]
			gen := newProgGen(rng, bs, width)
			banks := []int{0, 0, 1, 2}[:2+rng.Intn(3)]
			for i := 0; i < 3+rng.Intn(3); i++ {
				gen.load(banks)
			}
			for i := 0; i < 1+rng.Intn(2); i++ {
				gen.li()
			}
			for i := 0; i < 5+rng.Intn(8); i++ {
				gen.op()
			}
			for i := 0; i < 2+rng.Intn(3); i++ {
				gen.store(banks)
			}
			var inputs []seededInput
			for a, vals := range gen.loads {
				inputs = append(inputs, seededInput{a, pim.MustPackLanes(vals, bs, width)})
			}
			for _, level := range []int{0, 1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/random", gen.src.String(), inputs, level)
				pred, meas = pred+p, meas+m
			}
		}
		// Random DAGs full of div/mod pairs: -O2 issues one DivMod
		// request per live pair, and the pricer prices its quotient and
		// remainder writes.
		rng = rand.New(rand.NewSource(int64(trd) + 100))
		paired := 0
		for trial := 0; trial < 6; trial++ {
			bs := []int{8, 16}[rng.Intn(2)]
			gen := newProgGen(rng, bs, width)
			banks := []int{0, 0, 1}[:1+rng.Intn(3)]
			for i := 0; i < 3+rng.Intn(2); i++ {
				gen.load(banks)
			}
			gen.li()
			for i := 0; i < 3+rng.Intn(4); i++ {
				gen.pair(banks)
				gen.op()
			}
			for i := 0; i < 2+rng.Intn(2); i++ {
				gen.store(banks)
			}
			var inputs []seededInput
			for a, vals := range gen.loads {
				inputs = append(inputs, seededInput{a, pim.MustPackLanes(vals, bs, width)})
			}
			for _, level := range []int{0, 1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/paired", gen.src.String(), inputs, level)
				pred, meas = pred+p, meas+m
			}
			res, err := Compile(gen.src.String(), cfg, Options{Level: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range res.Plan.Steps {
				for _, r := range st.Reqs {
					if r.Rem != nil {
						paired++
					}
				}
			}
		}
		if paired == 0 {
			t.Errorf("%v: the paired DAGs issued no paired request", trd)
		}
	}
	// Lanes wider than the kernel table's measuring track, on the
	// default 512-wire geometry.
	cfg := params.DefaultConfig()
	wide := `%a = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%s = add %a, %b bs=128
%x = xor %s, %a bs=128
%q = div %x, %b bs=128
%h = shr %q bs=128 imm=9
store %h, b0.s0.t2.d0.r3
store %s, b0.s0.t2.d0.r4
`
	rng := rand.New(rand.NewSource(5))
	var inputs []seededInput
	for r := 0; r < 2; r++ {
		lanes := make([]uint64, cfg.Geometry.TrackWidth/64)
		for l := range lanes {
			lanes[l] = rng.Uint64()
		}
		inputs = append(inputs, seededInput{isa.Addr{Tile: 1, Row: r}, pim.MustPackLanes(lanes, 64, cfg.Geometry.TrackWidth)})
	}
	for _, level := range []int{0, 1, 2} {
		p, m := checkModel(t, cfg, "wide", wide, inputs, level)
		pred, meas = pred+p, meas+m
	}
	t.Logf("shift steps: predicted %d, measured %d", pred, meas)
}
