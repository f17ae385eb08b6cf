package compile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/memory"
	"repro/internal/params"
)

// parseSeeds are the front end's fuzz seeds: accepted programs of
// every statement shape and one of each rejection.
var parseSeeds = []string{
	"%a = load b0.s0.t1.d0.r0\n%k = li 7 bs=8\n%s = add %a, %k bs=8\nstore %s, b0.s0.t2.d0.r1\n",
	"%a = load b0.s0.t1.d1.r0\n%b = load b0.s0.t1.d1.r1\n%q = div %a, %b bs=8\n%r = mod %a, %b bs=8\nstore %q, b0.s0.t2.d1.r0\nstore %r, b0.s0.t2.d1.r1\n",
	"%c = load b0.s0.t1.d0.r2\n%h = shr %c bs=16 imm=3\n%l = shl %c bs=16 imm=2\n%y = xor %h, %l bs=16\nstore %y, b0.s0.t2.d0.r3\n",
	"; comment\n%a = li 1 bs=8 ; trailing\n\nstore %a, b0.s0.t1.d0.r0\n",
	"%a = li 300 bs=8",
	"%a = add %b, %c bs=8",
	"%a = li 1 bs=8\n%a = li 2 bs=8",
	"%a = load b99.s0.t0.d0.r0",
	"%a = frob %a bs=8",
	"store %x",
	"%dead = li 3 bs=8\n%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t1.d0.r1\n",
	"%a = li 1 bs=8\n%b = li 1 bs=16\n%c = add %a, %b bs=8\nstore %c, b0.s0.t1.d0.r0",
}

// FuzzParseProgram drives the pimasm front end with arbitrary source:
// the parser must never panic, every rejection must carry an error
// class, and an accepted program must round-trip — its canonical
// String() form reparses to the same canonical form and the verifier
// sees the same diagnostics (lines aside, since String drops comments
// and blank lines).
func FuzzParseProgram(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	g := params.DefaultGeometry()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src, g)
		if err != nil {
			if ClassOf(err) == "" {
				t.Fatalf("unclassed parse error: %v", err)
			}
			return
		}
		canon := prog.String()
		prog2, err := Parse(canon, g)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical:\n%s\noriginal:\n%s", err, canon, src)
		}
		if got := prog2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", canon, got)
		}
		if d1, d2 := diagSet(prog.Verify()), diagSet(prog2.Verify()); !sameDiagSet(d1, d2) {
			t.Fatalf("verifier diagnostics differ across round-trip:\n%v\nvs\n%v\nprogram:\n%s", d1, d2, canon)
		}
	})
}

// foldSeeds exercise every value-numbering and folding rule.
var foldSeeds = []string{
	"%a = load b0.s0.t1.d0.r0\n%b = load b0.s0.t1.d0.r1\n%z = li 0 bs=8\n%n = shr %a bs=8 imm=4\n%m = mult %z, %n bs=8\n%f = fma %n, %z, %b bs=8\n%s = add %m, %f, %z bs=8\nstore %s, b0.s0.t2.d0.r0\n",
	"%a = load b0.s0.t1.d0.r1\n%z = li 0 bs=8\n%m = mult %z, %a bs=8\nstore %m, b0.s0.t2.d0.r0\n",
	"%a = load b0.s0.t1.d0.r0\n%p = shr %a bs=8 imm=3\n%q = shr %p bs=8 imm=5\n%r = shl %a bs=8 imm=0\n%w = shl %r bs=8 imm=2\n%x = xor %r, %a, %q, %w bs=8\nstore %x, b0.s0.t2.d0.r0\nstore %q, b0.s0.t2.d0.r1\n",
	"%a = load b0.s0.t1.d0.r0\n%a2 = load b0.s0.t1.d0.r0\n%b = load b0.s0.t1.d0.r1\n%p = add %a, %b bs=8\n%q = add %b, %a2 bs=8\n%s = sub %p, %q bs=8\n%t = sub %p, %q bs=8\n%u = and %s, %t, %a bs=8\nstore %u, b0.s0.t2.d0.r0\n",
	"%a = load b0.s0.t1.d0.r0\n%b = load b1.s0.t1.d0.r1\n%k = li 9 bs=16\n%j = li 9 bs=16\n%m = max %a, %a, %b, %k, %j bs=16\n%o = or %m, %m bs=16\n%x = xor %o, %b, %b bs=16\nstore %x, b0.s0.t2.d0.r0\nstore %o, b1.s0.t2.d0.r0\n",
	"%a = load b0.s0.t1.d0.r0\n%z = li 0 bs=32\n%y = and %a, %z bs=32\n%v = shr %y bs=32 imm=7\n%w = add %v, %a bs=32\nstore %w, b0.s0.t2.d0.r0\nstore %y, b0.s0.t2.d0.r1\n",
}

// FuzzCompileDifferential holds the -O2 plan to the naive -O0 baseline
// on arbitrary source: whenever the -O0 plan of an accepted program
// runs cleanly on a seeded memory, the -O2 plan, folded and placed,
// must run cleanly on the same inputs and store identical rows.
func FuzzCompileDifferential(f *testing.F) {
	for _, s := range append(parseSeeds, foldSeeds...) {
		f.Add(s)
	}
	for _, c := range pairCases {
		f.Add(c.src)
	}
	cfg := testCfg(params.TRD7)
	run := func(t *testing.T, res *Result) (*memory.Memory, error) {
		m, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Odd inputs keep every lane narrow, so multiplies of them pass
		// their lane check; even inputs are full-width.
		for i, in := range res.Inputs {
			rng := rand.New(rand.NewSource(int64(i)))
			row := dbc.NewRow(cfg.Geometry.TrackWidth)
			for w := range row.Words {
				row.Words[w] = rng.Uint64()
				if i%2 == 1 {
					row.Words[w] &= 0x0F0F0F0F0F0F0F0F
				}
			}
			row.MaskTail()
			if err := m.WriteRow(in.Addr, row); err != nil {
				t.Fatal(err)
			}
		}
		return m, res.Plan.Run(m)
	}
	f.Fuzz(func(t *testing.T, src string) {
		naive, err := Compile(src, cfg, Options{})
		if err != nil {
			return
		}
		m0, err := run(t, naive)
		if err != nil {
			return
		}
		opt, err := Compile(src, cfg, Options{Level: 2})
		if err != nil {
			t.Fatalf("-O2 rejects a program -O0 runs: %v\n%s", err, src)
		}
		m2, err := run(t, opt)
		if err != nil {
			t.Fatalf("-O2 fails where -O0 runs: %v\n%s", err, src)
		}
		for _, out := range naive.Outputs {
			r0, err0 := m0.ReadRow(out.Addr)
			r2, err2 := m2.ReadRow(out.Addr)
			if err0 != nil || err2 != nil {
				t.Fatal(err0, err2)
			}
			if !r2.Equal(r0) {
				t.Fatalf("%%%s at -O2 differs from -O0\n%s", out.Name, src)
			}
		}
	})
}

// diagSet folds diagnostics into a line-independent multiset.
func diagSet(diags []Diag) map[string]int {
	set := make(map[string]int, len(diags))
	for _, d := range diags {
		set[fmt.Sprintf("%s|%t|%s", d.Class, d.Err, d.Msg)]++
	}
	return set
}

func sameDiagSet(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
