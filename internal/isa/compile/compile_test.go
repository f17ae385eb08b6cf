package compile

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

func testCfg(trd params.TRD) params.Config {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	cfg.TRD = trd
	return cfg
}

func laneMask(bs int) uint64 {
	if bs >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bs) - 1
}

// progGen builds a random pimasm program while tracking the expected
// per-lane values of every register — the scalar reference the PIM
// execution is compared against.
type progGen struct {
	rng   *rand.Rand
	bs    int
	lanes int
	src   strings.Builder
	regs  []string
	vals  map[string][]uint64
	next  int

	loads  map[isa.Addr][]uint64
	stores map[isa.Addr]string
	used   map[isa.Addr]bool
}

func newProgGen(rng *rand.Rand, bs, width int) *progGen {
	return &progGen{
		rng: rng, bs: bs, lanes: width / bs,
		vals:   make(map[string][]uint64),
		loads:  make(map[isa.Addr][]uint64),
		stores: make(map[isa.Addr]string),
		used:   make(map[isa.Addr]bool),
	}
}

func (g *progGen) fresh() string {
	g.next++
	return fmt.Sprintf("v%d", g.next)
}

func (g *progGen) def(name string, vals []uint64) {
	g.regs = append(g.regs, name)
	g.vals[name] = vals
}

func (g *progGen) pick() string { return g.regs[g.rng.Intn(len(g.regs))] }

// addr draws an unused non-PIM row in one of the given banks.
func (g *progGen) addr(banks []int) isa.Addr {
	for {
		a := isa.Addr{
			Bank:     banks[g.rng.Intn(len(banks))],
			Subarray: g.rng.Intn(4),
			Tile:     1 + g.rng.Intn(3),
			DBC:      g.rng.Intn(4),
			Row:      g.rng.Intn(32),
		}
		if !g.used[a] {
			g.used[a] = true
			return a
		}
	}
}

func (g *progGen) load(banks []int) {
	a := g.addr(banks)
	vals := make([]uint64, g.lanes)
	for l := range vals {
		vals[l] = g.rng.Uint64() & laneMask(g.bs)
	}
	name := g.fresh()
	fmt.Fprintf(&g.src, "%%%s = load %s\n", name, isa.FormatAddr(a))
	g.def(name, vals)
	g.loads[a] = vals
}

func (g *progGen) li() {
	v := g.rng.Uint64() & laneMask(g.bs)
	name := g.fresh()
	fmt.Fprintf(&g.src, "%%%s = li %d bs=%d\n", name, v, g.bs)
	vals := make([]uint64, g.lanes)
	for l := range vals {
		vals[l] = v
	}
	g.def(name, vals)
}

// narrow emits a shr making a value fit bs/2 bits (mult/fma inputs).
func (g *progGen) narrow(reg string) string {
	name := g.fresh()
	fmt.Fprintf(&g.src, "%%%s = shr %%%s bs=%d imm=%d\n", name, reg, g.bs, g.bs/2)
	vals := make([]uint64, g.lanes)
	for l := range vals {
		vals[l] = g.vals[reg][l] >> uint(g.bs/2)
	}
	g.def(name, vals)
	return name
}

var genOps = []string{"add", "sub", "and", "or", "xor", "not", "mult", "div", "mod", "shl", "shr", "fma"}

func (g *progGen) op() {
	mask := laneMask(g.bs)
	name := g.fresh()
	out := make([]uint64, g.lanes)
	switch op := genOps[g.rng.Intn(len(genOps))]; op {
	case "add":
		k := 2 + g.rng.Intn(5)
		args := make([]string, k)
		for i := range args {
			args[i] = g.pick()
		}
		for l := range out {
			for _, a := range args {
				out[l] += g.vals[a][l]
			}
			out[l] &= mask
		}
		fmt.Fprintf(&g.src, "%%%s = add %%%s bs=%d\n", name, strings.Join(args, ", %"), g.bs)
	case "sub":
		a, b := g.pick(), g.pick()
		for l := range out {
			out[l] = (g.vals[a][l] - g.vals[b][l]) & mask
		}
		fmt.Fprintf(&g.src, "%%%s = sub %%%s, %%%s bs=%d\n", name, a, b, g.bs)
	case "and", "or", "xor":
		a, b := g.pick(), g.pick()
		for l := range out {
			switch op {
			case "and":
				out[l] = g.vals[a][l] & g.vals[b][l]
			case "or":
				out[l] = g.vals[a][l] | g.vals[b][l]
			case "xor":
				out[l] = g.vals[a][l] ^ g.vals[b][l]
			}
		}
		fmt.Fprintf(&g.src, "%%%s = %s %%%s, %%%s bs=%d\n", name, op, a, b, g.bs)
	case "not":
		a := g.pick()
		for l := range out {
			out[l] = ^g.vals[a][l] & mask
		}
		fmt.Fprintf(&g.src, "%%%s = not %%%s bs=%d\n", name, a, g.bs)
	case "mult":
		a, b := g.narrow(g.pick()), g.narrow(g.pick())
		for l := range out {
			out[l] = g.vals[a][l] * g.vals[b][l] & mask
		}
		fmt.Fprintf(&g.src, "%%%s = mult %%%s, %%%s bs=%d\n", name, a, b, g.bs)
	case "fma":
		a, b, c := g.narrow(g.pick()), g.narrow(g.pick()), g.pick()
		for l := range out {
			out[l] = (g.vals[a][l]*g.vals[b][l] + g.vals[c][l]) & mask
		}
		fmt.Fprintf(&g.src, "%%%s = fma %%%s, %%%s, %%%s bs=%d\n", name, a, b, c, g.bs)
	case "div", "mod":
		a, d := g.pick(), g.pick()
		for l := range out {
			av, dv := g.vals[a][l], g.vals[d][l]
			q, r := mask, av
			if dv != 0 {
				q, r = av/dv, av%dv
			}
			if op == "div" {
				out[l] = q
			} else {
				out[l] = r
			}
		}
		fmt.Fprintf(&g.src, "%%%s = %s %%%s, %%%s bs=%d\n", name, op, a, d, g.bs)
	case "shl", "shr":
		a, k := g.pick(), g.rng.Intn(g.bs+1)
		for l := range out {
			if op == "shl" {
				out[l] = g.vals[a][l] << uint(k) & mask
			} else {
				out[l] = g.vals[a][l] >> uint(k)
			}
		}
		fmt.Fprintf(&g.src, "%%%s = %s %%%s bs=%d imm=%d\n", name, op, a, g.bs, k)
	}
	g.def(name, out)
}

func (g *progGen) store(banks []int) {
	a := g.addr(banks)
	reg := g.pick()
	fmt.Fprintf(&g.src, "store %%%s, %s\n", reg, isa.FormatAddr(a))
	g.stores[a] = reg
}

// runPlanOn seeds a fresh memory with the program's load rows, runs the
// plan, and returns the memory.
func runPlanOn(t *testing.T, cfg params.Config, gen *progGen, level int) (*memory.Memory, *Result) {
	t.Helper()
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a, vals := range gen.loads {
		if err := m.WriteRow(a, pim.MustPackLanes(vals, gen.bs, cfg.Geometry.TrackWidth)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Compile(gen.src.String(), cfg, Options{Level: level})
	if err != nil {
		t.Fatalf("compile -O%d:\n%s\n%v", level, gen.src.String(), err)
	}
	if err := res.Plan.Run(m); err != nil {
		t.Fatalf("run -O%d:\n%s\n%v", level, gen.src.String(), err)
	}
	return m, res
}

// TestDifferentialRandomPrograms is the compiler's primary correctness
// gate: across randomized programs, the -O1 placed plan must be
// result-identical to the naive hand-placed plan, and both must match
// the scalar per-lane reference.
func TestDifferentialRandomPrograms(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD7} {
		trd := trd
		t.Run(trd.String(), func(t *testing.T) {
			cfg := testCfg(trd)
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				bs := []int{8, 16, 32}[rng.Intn(3)]
				gen := newProgGen(rng, bs, cfg.Geometry.TrackWidth)
				banks := []int{0, 0, 1, 2}[:2+rng.Intn(3)] // bank 0 majority
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

				m0, _ := runPlanOn(t, cfg, gen, 0)
				m1, res := runPlanOn(t, cfg, gen, 1)
				for a, reg := range gen.stores {
					r0, err0 := m0.ReadRow(a)
					r1, err1 := m1.ReadRow(a)
					if err0 != nil || err1 != nil {
						t.Fatalf("trial %d: read %s: %v %v", trial, isa.FormatAddr(a), err0, err1)
					}
					if !r0.Equal(r1) {
						t.Fatalf("trial %d: %%%s at %s differs between -O0 and -O1\nprogram:\n%s",
							trial, reg, isa.FormatAddr(a), gen.src.String())
					}
					got := pim.UnpackLanes(r1, bs)
					for l, want := range gen.vals[reg] {
						if got[l] != want {
							t.Fatalf("trial %d: %%%s lane %d = %d, want %d\nprogram:\n%s",
								trial, reg, l, got[l], want, gen.src.String())
						}
					}
				}
				if res.Stats.CrossDBCMoves > res.Naive.CrossDBCMoves {
					t.Errorf("trial %d: -O1 predicts %d cross-DBC moves, naive %d",
						trial, res.Stats.CrossDBCMoves, res.Naive.CrossDBCMoves)
				}
			}
		})
	}
}

// TestPlacementBeatsNaive pins the optimization claim on measured
// counters, not just the cost model: over a corpus, -O1 does fewer
// row-buffer copies and fewer racetrack shift steps than naive.
func TestPlacementBeatsNaive(t *testing.T) {
	cfg := testCfg(params.TRD7)
	rng := rand.New(rand.NewSource(7))
	var naiveCopies, optCopies, naiveShifts, optShifts int
	for trial := 0; trial < 8; trial++ {
		gen := newProgGen(rng, 8, cfg.Geometry.TrackWidth)
		banks := []int{0}
		for i := 0; i < 4; i++ {
			gen.load(banks)
		}
		gen.li()
		for i := 0; i < 8; i++ {
			gen.op()
		}
		for i := 0; i < 3; i++ {
			gen.store(banks)
		}
		m0, _ := runPlanOn(t, cfg, gen, 0)
		m1, _ := runPlanOn(t, cfg, gen, 1)
		naiveCopies += m0.Moves().RowCopies
		optCopies += m1.Moves().RowCopies
		naiveShifts += m0.Stats().ShiftSteps
		optShifts += m1.Stats().ShiftSteps
	}
	t.Logf("row copies: naive %d vs -O1 %d; shift steps: naive %d vs -O1 %d",
		naiveCopies, optCopies, naiveShifts, optShifts)
	if optCopies >= naiveCopies {
		t.Errorf("-O1 row copies = %d, naive = %d (want fewer)", optCopies, naiveCopies)
	}
	if optShifts >= naiveShifts {
		t.Errorf("-O1 shift steps = %d, naive = %d (want fewer)", optShifts, naiveShifts)
	}
}

// TestDirectStoreFolding checks that the first same-bank store of an op
// becomes the request destination instead of a trailing copy.
func TestDirectStoreFolding(t *testing.T) {
	cfg := testCfg(params.TRD7)
	src := `
%a = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%s = add %a, %b bs=8
store %s, b0.s0.t2.d1.r5
`
	res, err := Compile(src, cfg, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Plan.Steps {
		if st.Kind == StepCopy {
			t.Errorf("unexpected copy step %s -> %s: store should fold into the request",
				isa.FormatAddr(st.Src), isa.FormatAddr(st.Dst))
		}
		if st.Kind == StepBatch {
			if want := (isa.Addr{Bank: 0, Subarray: 0, Tile: 2, DBC: 1, Row: 5}); st.Reqs[0].Dst != want {
				t.Errorf("request dst = %s, want the store address", isa.FormatAddr(st.Reqs[0].Dst))
			}
		}
	}
	if res.Stats.CrossDBCMoves >= res.Naive.CrossDBCMoves {
		t.Errorf("folded plan predicts %d moves, naive %d", res.Stats.CrossDBCMoves, res.Naive.CrossDBCMoves)
	}
}

// TestLevelSpreadsAcrossDBCs checks that independent ops of one DAG
// level are placed on different PIM DBCs of the exec bank.
func TestLevelSpreadsAcrossDBCs(t *testing.T) {
	cfg := testCfg(params.TRD7)
	var src strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&src, "%%a%d = load b0.s0.t1.d0.r%d\n%%b%d = load b0.s0.t1.d1.r%d\n", i, i, i, i)
		fmt.Fprintf(&src, "%%s%d = add %%a%d, %%b%d bs=8\n", i, i, i)
		fmt.Fprintf(&src, "store %%s%d, b0.s1.t2.d0.r%d\n", i, i)
	}
	res, err := Compile(src.String(), cfg, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	execs := make(map[isa.Addr]bool)
	for _, st := range res.Plan.Steps {
		if st.Kind == StepBatch {
			for _, r := range st.Reqs {
				execs[r.In.Src] = true
			}
		}
	}
	if len(execs) < 2 {
		t.Errorf("4 independent ops placed on %d DBC(s), want a spread", len(execs))
	}
}

// TestLegalizeWideAdd checks operand-list chaining through the real
// machine on both window sizes.
func TestLegalizeWideAdd(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := testCfg(trd)
		var src strings.Builder
		want := uint64(0)
		for i := 0; i < 7; i++ {
			fmt.Fprintf(&src, "%%c%d = li %d bs=8\n", i, 10+i)
			want += uint64(10 + i)
		}
		src.WriteString("%s = add %c0, %c1, %c2, %c3, %c4, %c5, %c6 bs=8\nstore %s, b0.s0.t1.d0.r0\n")
		m, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compile(src.String(), cfg, Options{Level: 1})
		if err != nil {
			t.Fatalf("%v: %v", trd, err)
		}
		if err := res.Plan.Run(m); err != nil {
			t.Fatalf("%v: %v", trd, err)
		}
		row, err := m.ReadRow(isa.Addr{Tile: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := pim.UnpackLanes(row, 8)[0]; got != want&0xFF {
			t.Errorf("%v: 7-operand add = %d, want %d", trd, got, want&0xFF)
		}
	}
}

// TestParseErrors pins the error surface: line numbers and messages.
func TestParseErrors(t *testing.T) {
	g := params.DefaultGeometry()
	cases := []struct {
		src  string
		line int
		frag string
	}{
		{"%a = li 1 bs=8\n%a = li 2 bs=8", 2, "assigned twice"},
		{"%a = add %b, %c bs=8", 1, "undefined register"},
		{"%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t1.d0.r1\nstore %a, b0.s0.t1.d0.r1", 3, "duplicate store"},
		{"%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t1.d0.r0", 2, "loaded address"},
		{"%a = frob %a bs=8", 1, "unknown operation"},
		{"%a = li 300 bs=8", 1, "does not fit"},
		{"%a = load b99.s0.t0.d0.r0", 1, "bank"},
		{"%a = read b0.s0.t0.d0.r0", 1, "not a compute"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src, g)
		var pe *isa.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: got %v, want *isa.ParseError", tc.src, err)
			continue
		}
		if pe.Line != tc.line || !strings.Contains(pe.Error(), tc.frag) {
			t.Errorf("%q: error %q on line %d, want %q on line %d", tc.src, pe, pe.Line, tc.frag, tc.line)
		}
	}
}

// TestLegalizeErrors pins arity and immediate validation.
func TestLegalizeErrors(t *testing.T) {
	cfg := testCfg(params.TRD7)
	cases := []string{
		"%a = li 1 bs=8\n%b = not %a, %a bs=8",
		"%a = li 1 bs=8\n%b = div %a bs=8",
		"%a = li 1 bs=8\n%b = shl %a bs=8 imm=9",
		"%a = li 1 bs=8\n%b = add %a, %a bs=8 imm=3",
		"%a = li 1 bs=8\n%b = nand %a, %a, %a, %a, %a, %a, %a, %a bs=8",
	}
	for _, src := range cases {
		full := src + "\nstore %b, b0.s0.t1.d0.r0\n"
		if _, err := Compile(full, cfg, Options{}); err == nil {
			t.Errorf("accepted:\n%s", src)
		}
	}
}

// TestDumpPasses checks the -dump hook fires for every pass in order.
func TestDumpPasses(t *testing.T) {
	cfg := testCfg(params.TRD7)
	var passes []string
	src := "%a = li 3 bs=8\n%b = li 4 bs=8\n%s = sub %a, %b bs=8\nstore %s, b0.s0.t1.d0.r0\n"
	_, err := Compile(src, cfg, Options{Level: 1, Dump: func(pass, text string) {
		passes = append(passes, pass)
		if text == "" {
			t.Errorf("pass %s dumped empty text", pass)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"parse", "legalize", "levels", "place", "schedule"}
	if strings.Join(passes, ",") != strings.Join(want, ",") {
		t.Errorf("dump order %v, want %v", passes, want)
	}
}

// TestPipelinedDifferential is the pipelined scheduler's correctness
// gate: across randomized DAGs, every optimization level (-O0 naive,
// -O1 level barriers, -O2 pipelined windows) must leave bit-identical
// memory at the store addresses and match the scalar per-lane
// reference.
func TestPipelinedDifferential(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD7} {
		trd := trd
		t.Run(trd.String(), func(t *testing.T) {
			cfg := testCfg(trd)
			rng := rand.New(rand.NewSource(1042))
			trials := 100
			if testing.Short() {
				trials = 10
			}
			for trial := 0; trial < trials; trial++ {
				bs := []int{8, 16, 32}[rng.Intn(3)]
				gen := newProgGen(rng, bs, cfg.Geometry.TrackWidth)
				banks := []int{0, 0, 1, 2}[:2+rng.Intn(3)]
				for i := 0; i < 3+rng.Intn(3); i++ {
					gen.load(banks)
				}
				for i := 0; i < 1+rng.Intn(2); i++ {
					gen.li()
				}
				for i := 0; i < 5+rng.Intn(10); i++ {
					gen.op()
				}
				for i := 0; i < 2+rng.Intn(3); i++ {
					gen.store(banks)
				}

				var ref *memory.Memory
				for _, level := range []int{0, 1, 2} {
					m, _ := runPlanOn(t, cfg, gen, level)
					for a, reg := range gen.stores {
						row, err := m.ReadRow(a)
						if err != nil {
							t.Fatalf("trial %d: read %s: %v", trial, isa.FormatAddr(a), err)
						}
						got := pim.UnpackLanes(row, bs)
						for l, want := range gen.vals[reg] {
							if got[l] != want {
								t.Fatalf("trial %d -O%d: %%%s lane %d = %d, want %d\nprogram:\n%s",
									trial, level, reg, l, got[l], want, gen.src.String())
							}
						}
						if ref != nil {
							refRow, err := ref.ReadRow(a)
							if err != nil {
								t.Fatal(err)
							}
							if !row.Equal(refRow) {
								t.Fatalf("trial %d -O%d: %%%s at %s differs from -O0\nprogram:\n%s",
									trial, level, reg, isa.FormatAddr(a), gen.src.String())
							}
						}
					}
					if ref == nil {
						ref = m
					}
				}
			}
		})
	}
}
