package compile

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// examplePrograms returns the example programs by file name.
func examplePrograms(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "pimasm", "*.pimasm"))
	if err != nil || len(files) != 3 {
		t.Fatalf("example corpus: %d files, %v", len(files), err)
	}
	progs := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = string(src)
	}
	return progs
}

// fmaMaxKernel is the compiled CNN-style kernel coruscantd's load mix
// sends to /v1/compile: y = max(fma(x, w, b), x).
const fmaMaxKernel = `%x = load b0.s0.t1.d0.r0
%w = load b0.s0.t1.d0.r1
%b = load b0.s0.t1.d0.r2
%y = fma %x, %w, %b bs=8
%r = max %y, %x bs=8
store %r, b0.s0.t2.d1.r0
store %y, b0.s0.t2.d1.r1
`

// compileOn compiles src on the scratch and clears it again, as
// Compile does on a pooled one.
func compileOn(s *scratch, src string, cfg params.Config, level int) (*Result, error) {
	defer s.release()
	return s.compile(src, cfg, Options{Level: level})
}

// writes counts the plan's constant writes: each carries a packed row
// of its own.
func writes(pl *Plan) int {
	n := 0
	for _, st := range pl.Steps {
		for _, r := range st.Reqs {
			if r.Kind == memory.KindWrite {
				n++
			}
		}
	}
	return n
}

// TestCompileAllocatesOnlyThePlan pins the pooled compile: on a warm
// scratch a compile allocates the Result, its input-and-output array,
// the Plan with its Steps, the request array, the operand-and-remainder
// array and one packed row per constant write, and nothing else. A cold
// scratch costs no more than a compile did before the scratch was
// pooled (the budgets below: the per-program counts measured then).
func TestCompileAllocatesOnlyThePlan(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	cfg := params.DefaultConfig()
	progs := examplePrograms(t)
	progs["fma+max kernel"] = fmaMaxKernel
	unpooled := map[string][3]float64{
		"01_mixed.pimasm":     {48, 54, 64},
		"02_pirm_ops.pimasm":  {36, 42, 55},
		"03_crossbank.pimasm": {36, 46, 56},
		"fma+max kernel":      {33, 36, 46},
	}
	for name, src := range progs {
		for level := 0; level <= 2; level++ {
			res, err := compileOn(new(scratch), src, cfg, level)
			if err != nil {
				t.Fatalf("%s -O%d: %v", name, level, err)
			}
			owned := float64(6 + writes(res.Plan))
			warm := new(scratch)
			warmAllocs := testing.AllocsPerRun(10, func() {
				if _, err := compileOn(warm, src, cfg, level); err != nil {
					t.Fatal(err)
				}
			})
			coldAllocs := testing.AllocsPerRun(10, func() {
				if _, err := compileOn(new(scratch), src, cfg, level); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s -O%d: warm %.0f (the plan's %.0f), cold %.0f", name, level, warmAllocs, owned, coldAllocs)
			if warmAllocs > owned {
				t.Errorf("%s -O%d: a warm compile allocates %.0f, the Result owns %.0f", name, level, warmAllocs, owned)
			}
			if budget := unpooled[name][level]; coldAllocs > budget {
				t.Errorf("%s -O%d: a cold compile allocates %.0f, an unpooled one %.0f", name, level, coldAllocs, budget)
			}
		}
	}
}

// bigProgram is a MaxStatements-statement program with nothing to fold:
// 48 loads, then ops each reading the previous value and one up to 41
// back (every tenth a wide add the legalizer chains, and subs it lowers
// to not and add), then 16 stores of the last values, which reach
// every op.
func bigProgram() string {
	var b strings.Builder
	regs := 0
	for ; regs < 48; regs++ {
		fmt.Fprintf(&b, "%%v%d = load b0.s1.t1.d%d.r%d\n", regs, regs/8, regs%8)
	}
	ops := []string{"add", "xor", "or", "sub", "max", "and"}
	for ; regs < MaxStatements-16; regs++ {
		a, c := regs-1, regs-2-regs%40
		if regs%10 == 0 {
			fmt.Fprintf(&b, "%%v%d = add %%v%d, %%v%d, %%v%d, %%v%d, %%v%d, %%v%d, %%v%d, %%v%d bs=8\n",
				regs, a, c, a-2, a-3, a-4, a-5, a-6, a-7)
			continue
		}
		fmt.Fprintf(&b, "%%v%d = %s %%v%d, %%v%d bs=8\n", regs, ops[regs%len(ops)], a, c)
	}
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "store %%v%d, b0.s2.t1.d0.r%d\n", regs-1-i, i)
	}
	return b.String()
}

// TestResultOwnsPlan compiles program A, then on the same scratch a
// program the verifier rejects and a MaxStatements program that grows
// every buffer. A's plan, inputs and outputs must be unchanged, and the
// plan must still store A's lane values bit for bit.
func TestResultOwnsPlan(t *testing.T) {
	cfg := testCfg(params.TRD7)
	rng := rand.New(rand.NewSource(34))
	gen := newProgGen(rng, 8, cfg.Geometry.TrackWidth)
	banks := []int{0, 0, 1}
	for i := 0; i < 4; i++ {
		gen.load(banks)
	}
	gen.li()
	for i := 0; i < 16; i++ {
		if i%4 == 0 {
			gen.pair(banks)
		}
		gen.op()
	}
	for i := 0; i < 6; i++ {
		gen.store(banks)
	}
	s := new(scratch)
	a, err := compileOn(s, gen.src.String(), cfg, 2)
	if err != nil {
		t.Fatalf("compile A:\n%s\n%v", gen.src.String(), err)
	}
	plan := a.Plan.String()
	inputs := append([]Output(nil), a.Inputs...)
	outputs := append([]Output(nil), a.Outputs...)
	stats := a.Stats

	const rejected = "%a = load b0.s0.t1.d0.r0\n%b = add %a, %a bs=8\n%c = add %b, %a bs=16\nstore %c, b0.s0.t2.d0.r0\n"
	if _, err := compileOn(s, rejected, cfg, 2); ClassOf(err) != ClassWidth {
		t.Fatalf("rejected program: %v, want a %s error", err, ClassWidth)
	}
	big := bigProgram()
	if n := strings.Count(big, "\n"); n != MaxStatements {
		t.Fatalf("big program has %d statements, want %d", n, MaxStatements)
	}
	if _, err := compileOn(s, big, params.DefaultConfig(), 2); err != nil {
		t.Fatalf("big program: %v", err)
	}

	if got := a.Plan.String(); got != plan {
		t.Fatalf("A's plan changed under later compiles:\n%s\nwant:\n%s", got, plan)
	}
	if !reflect.DeepEqual(a.Inputs, inputs) || !reflect.DeepEqual(a.Outputs, outputs) || a.Stats != stats {
		t.Fatalf("A's inputs, outputs or stats changed under later compiles")
	}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr, vals := range gen.loads {
		if err := m.WriteRow(addr, pim.MustPackLanes(vals, gen.bs, cfg.Geometry.TrackWidth)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Plan.Run(m); err != nil {
		t.Fatalf("run A: %v", err)
	}
	for addr, reg := range gen.stores {
		row, err := m.ReadRow(addr)
		if err != nil {
			t.Fatal(err)
		}
		if want := pim.MustPackLanes(gen.vals[reg], gen.bs, cfg.Geometry.TrackWidth); !row.Equal(want) {
			t.Fatalf("%%%s at %s: %v, want %v", reg, isa.FormatAddr(addr), pim.UnpackLanes(row, gen.bs), gen.vals[reg])
		}
	}
}

// TestCompileConcurrent compiles eight distinct programs at once, each
// many times over the shared scratch pool, and holds every result to a
// serial compile of the same program. make race-obs runs it under the
// race detector.
func TestCompileConcurrent(t *testing.T) {
	cfg := testCfg(params.TRD3)
	srcs := make([]string, 8)
	want := make([]*Result, len(srcs))
	for i := range srcs {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		gen := newProgGen(rng, []int{8, 16}[i%2], cfg.Geometry.TrackWidth)
		banks := []int{0, 0, 1, 2}
		for j := 0; j < 3+i%3; j++ {
			gen.load(banks)
		}
		gen.li()
		for j := 0; j < 6+i; j++ {
			if j%3 == 0 {
				gen.redundant()
			}
			gen.op()
		}
		for j := 0; j < 4; j++ {
			gen.store(banks)
		}
		srcs[i] = gen.src.String()
		res, err := Compile(srcs[i], cfg, Options{Level: 2})
		if err != nil {
			t.Fatalf("program %d:\n%s\n%v", i, srcs[i], err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := Compile(srcs[i], cfg, Options{Level: 2})
				if err != nil {
					t.Errorf("program %d: %v", i, err)
					return
				}
				if got.Plan.String() != want[i].Plan.String() || got.Stats != want[i].Stats ||
					!reflect.DeepEqual(got.Inputs, want[i].Inputs) || !reflect.DeepEqual(got.Outputs, want[i].Outputs) {
					t.Errorf("program %d, compile %d: differs from the serial compile", i, rep)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
