package compile

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

// headSink measures, from a recorder's event stream, the shift steps
// each DBC takes and where its head stands. Kernel shift charges that
// do not move the head carry no position; only positioned shift steps
// move the tracked offset.
type headSink struct {
	mu     sync.Mutex
	shifts map[telemetry.Source]int
	off    map[telemetry.Source]int
}

func newHeadSink() *headSink {
	return &headSink{shifts: make(map[telemetry.Source]int), off: make(map[telemetry.Source]int)}
}

func (s *headSink) Emit(e telemetry.Event) {
	if e.Op != telemetry.OpShift || e.Phase != telemetry.PhaseStep {
		return
	}
	s.mu.Lock()
	s.shifts[e.Src]++
	if e.Pos != 0 {
		s.off[e.Src] = e.Pos - telemetry.PosBias
	}
	s.mu.Unlock()
}

func (s *headSink) Close() error { return nil }

// snapshot copies the per-DBC shift counts.
func (s *headSink) snapshot() map[telemetry.Source]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[telemetry.Source]int, len(s.shifts))
	for k, v := range s.shifts {
		out[k] = v
	}
	return out
}

// seededInput is one load row the test writes before running a plan.
type seededInput struct {
	addr isa.Addr
	row  dbc.Row
}

// requestsPerDBC counts, per DBC, the plan's requests whose footprint
// includes it.
func requestsPerDBC(pl *Plan, geo params.Geometry) map[isa.Addr]int {
	out := make(map[isa.Addr]int)
	ls := newLanes(geo, 1)
	for i := range pl.Steps {
		for j := range pl.Steps[i].Reqs {
			ls.footprint(&pl.Steps[i].Reqs[j])
			seen := make(map[isa.Addr]bool)
			for _, key := range ls.fp {
				seen[isa.AddrOfLinear(key, geo)] = true
			}
			for b := range seen {
				out[b]++
			}
		}
	}
	return out
}

// checkModel compiles src at the level, runs the plan on a fresh memory
// seeded with the inputs, and holds the cost model to the measured run:
// exact row copies, per-DBC shift steps within 2 per request touching
// the DBC, cycles within 5% and makespan within 10%, or, with exact,
// cycles and makespan to the step. The model starts from the head
// offsets the seeding writes left, read off the event stream, so
// seeding is not model error. It returns the predicted and measured
// shift totals.
func checkModel(t *testing.T, cfg params.Config, name, src string, inputs []seededInput, level int, exact bool) (pred, meas int) {
	t.Helper()
	res, err := Compile(src, cfg, Options{Level: level})
	if err != nil {
		t.Fatalf("%s -O%d: compile: %v", name, level, err)
	}
	sink := newHeadSink()
	rec := telemetry.NewRecorder(cfg, sink)
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTelemetry(rec)
	for _, in := range inputs {
		if err := m.WriteRow(in.addr, in.row); err != nil {
			t.Fatal(err)
		}
	}
	touched := requestsPerDBC(res.Plan, cfg.Geometry)
	start := make(map[isa.Addr]int)
	sink.mu.Lock()
	for base := range touched {
		if off, ok := sink.off[telemetry.Source(isa.DBCSource(base))]; ok {
			start[base] = off
		}
	}
	sink.mu.Unlock()
	before := sink.snapshot()
	cycles0, span0, copies0 := rec.Cycle(), rec.Makespan(), m.Moves().RowCopies
	if err := res.Plan.Run(m); err != nil {
		t.Fatalf("%s -O%d: run: %v", name, level, err)
	}
	after := sink.snapshot()
	cycles, span := int(rec.Cycle()-cycles0), int(rec.Makespan()-span0)

	if got := m.Moves().RowCopies - copies0; res.Stats.CrossDBCMoves != got {
		t.Errorf("%s -O%d: predicted %d row copies, measured %d", name, level, res.Stats.CrossDBCMoves, got)
	}
	st, heads, err := res.Plan.price(cfg.Geometry, cfg.TRD, start)
	if err != nil {
		t.Fatal(err)
	}
	predicted := make(map[isa.Addr]int, len(heads))
	for _, h := range heads {
		predicted[h.base] = h.shifts
	}
	for base, reqs := range touched {
		src := telemetry.Source(isa.DBCSource(base))
		got := after[src] - before[src]
		if d := predicted[base] - got; d > 2*reqs || -d > 2*reqs {
			t.Errorf("%s -O%d: %s predicted %d shift steps, measured %d over %d requests",
				name, level, src, predicted[base], got, reqs)
		}
		pred += predicted[base]
		meas += got
	}
	if d := st.Cycles - cycles; 20*d > cycles || -20*d > cycles {
		t.Errorf("%s -O%d: predicted %d cycles, measured %d", name, level, st.Cycles, cycles)
	}
	if d := st.Makespan - span; 10*d > span || -10*d > span {
		t.Errorf("%s -O%d: predicted makespan %d, measured %d", name, level, st.Makespan, span)
	}
	if exact && (st.Cycles != cycles || st.Makespan != span) {
		t.Errorf("%s -O%d: predicted %d cycles and makespan %d, measured %d and %d", name, level, st.Cycles, st.Makespan, cycles, span)
	}
	return pred, meas
}

// TestCostModelMatchesRun holds pimc's cost model to measured runs of
// the example corpus and of random DAGs, at -O1 and -O2, per DBC.
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
			for _, level := range []int{1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/"+filepath.Base(f), string(src), inputs, level, false)
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
			for _, level := range []int{1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/random", gen.src.String(), inputs, level, false)
				pred, meas = pred+p, meas+m
			}
		}
		// Random DAGs full of div/mod pairs: -O2 issues one DivMod
		// request per live pair, and the model prices its quotient and
		// remainder writes exactly.
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
			for _, level := range []int{1, 2} {
				p, m := checkModel(t, cfg, trd.String()+"/paired", gen.src.String(), inputs, level, true)
				if p != m {
					t.Errorf("%v/paired trial %d -O%d: predicted %d shift steps, measured %d\n%s", trd, trial, level, p, m, gen.src.String())
				}
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
	for _, level := range []int{1, 2} {
		p, m := checkModel(t, cfg, "wide", wide, inputs, level, false)
		pred, meas = pred+p, meas+m
	}
	t.Logf("shift steps: predicted %d, measured %d", pred, meas)
}
