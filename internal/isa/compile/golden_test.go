package compile

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/params"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from this run")

// goldenProgram is one program of the pinned plan table and the
// configuration it compiles for.
type goldenProgram struct {
	name string
	src  string
	cfg  params.Config
}

// goldenPrograms returns the three example programs at the default
// configuration (what the compile-corpus benchmark runs), then eight
// seeded random programs on 64 wires, alternating TRD 3 and TRD 7.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "pimasm", "*.pimasm"))
	if err != nil || len(files) != 3 {
		t.Fatalf("example corpus: %d files, %v", len(files), err)
	}
	var progs []goldenProgram
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, goldenProgram{filepath.Base(f), string(src), params.DefaultConfig()})
	}
	for seed := 1; seed <= 8; seed++ {
		trd := params.TRD3
		if seed%2 == 0 {
			trd = params.TRD7
		}
		cfg := testCfg(trd)
		rng := rand.New(rand.NewSource(int64(seed)))
		gen := newProgGen(rng, []int{8, 16, 32}[rng.Intn(3)], cfg.Geometry.TrackWidth)
		banks := []int{0, 0, 1, 2}[:2+rng.Intn(3)]
		for i := 0; i < 3+rng.Intn(3); i++ {
			gen.load(banks)
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			gen.li()
		}
		for i := 0; i < 8+rng.Intn(12); i++ {
			if rng.Intn(3) == 0 {
				gen.redundant()
			}
			if rng.Intn(4) == 0 {
				gen.pair(banks)
			}
			gen.op()
		}
		for i := 0; i < 4+rng.Intn(4); i++ {
			gen.store(banks)
		}
		progs = append(progs, goldenProgram{fmt.Sprintf("random-%d", seed), gen.src.String(), cfg})
	}
	return progs
}

// planTable compiles every golden program at -O0, -O1 and -O2 and
// renders each compile's PlanStats, its per-DBC shift prediction and
// its plan.
func planTable(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, p := range goldenPrograms(t) {
		for level := 0; level <= 2; level++ {
			res, err := Compile(p.src, p.cfg, Options{Level: level})
			if err != nil {
				t.Fatalf("%s -O%d: %v\n%s", p.name, level, err, p.src)
			}
			fmt.Fprintf(&b, "== %s -O%d (%v, %d wires)\n", p.name, level, p.cfg.TRD, p.cfg.Geometry.TrackWidth)
			fmt.Fprintf(&b, "stats %+v\n", res.Stats)
			shifts := res.ShiftsByDBC()
			srcs := make([]string, 0, len(shifts))
			for s := range shifts {
				srcs = append(srcs, s)
			}
			sort.Strings(srcs)
			b.WriteString("shifts")
			for _, s := range srcs {
				fmt.Fprintf(&b, " %s=%d", s, shifts[s])
			}
			b.WriteByte('\n')
			b.WriteString(res.Plan.String())
		}
	}
	return b.String()
}

// TestPlansPinned pins every plan pimc emits for the golden programs,
// request by request, with the pricer's prediction for it. A change
// that only makes compiling cheaper leaves the table as it is; rewrite
// it with -update only for a deliberate change of what pimc emits.
func TestPlansPinned(t *testing.T) {
	got := planTable(t)
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plans diverge at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("plan table has %d lines, want %d", len(gl), len(wl))
	}
}
