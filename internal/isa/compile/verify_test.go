package compile

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/params"
)

// TestDiagnosticsGolden pins the full rejection surface of the front
// end — parser, legalizer and verifier — on exact line numbers AND
// error classes, so a refactor cannot silently reroute a rejection to
// a different line or relabel its class. Vet (pimasm vet) must report
// each program's first error on the same line and class as Compile,
// the legalizer's arity and immediate rejections included.
func TestDiagnosticsGolden(t *testing.T) {
	cfg := testCfg(params.TRD7)
	cases := []struct {
		name  string
		src   string
		line  int
		class ErrorClass
	}{
		// Parser: syntax shapes.
		{"garbage-line", "frobnicate the racetrack", 1, ClassSyntax},
		{"bad-assign-shape", "%a = ", 1, ClassSyntax},
		{"bad-register-token", "%9a = li 1 bs=8", 1, ClassSyntax},
		{"bad-operand-token", "%a = li 1 bs=8\n%b = not %9 bs=8", 2, ClassSyntax},
		{"bad-store-shape", "%a = li 1 bs=8\nstore %a", 2, ClassSyntax},
		{"bad-li-shape", "%a = li", 1, ClassSyntax},
		{"bad-li-value", "%a = li zero bs=8", 1, ClassSyntax},
		{"bad-trailing-arg", "%a = li 1 bs=8 frob", 1, ClassSyntax},
		{"unknown-trailing-key", "%a = li 1 ws=8", 1, ClassSyntax},
		// Parser: addresses.
		{"bad-addr-format", "%a = load nowhere", 1, ClassAddress},
		{"addr-off-geometry", "%a = load b99.s0.t0.d0.r0", 1, ClassAddress},
		{"store-to-loaded", "%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t1.d0.r0", 2, ClassAddress},
		{"load-of-stored", "%a = li 1 bs=8\nstore %a, b0.s0.t1.d0.r0\n%b = load b0.s0.t1.d0.r0", 3, ClassAddress},
		// Parser: naming and widths.
		{"assigned-twice", "%a = li 1 bs=8\n%a = li 2 bs=8", 2, ClassRedefinition},
		{"undefined-register", "%a = add %b, %c bs=8", 1, ClassUseBeforeDef},
		{"li-overflow", "%a = li 300 bs=8", 1, ClassWidth},
		{"li-bs-too-big", "%a = li 1 bs=128", 1, ClassWidth},
		{"bad-blocksize", "%a = li 1 bs=9", 1, ClassWidth},
		{"duplicate-store", "%a = load b0.s0.t1.d0.r0\nstore %a, b0.s0.t1.d0.r1\nstore %a, b0.s0.t1.d0.r1", 3, ClassDeadStore},
		// Parser: program size, checked before any pass that grows
		// with the square of the program.
		{"too-many-statements", constStatements(MaxStatements + 1), MaxStatements + 1, ClassTooLarge},
		// Parser: opcodes.
		{"unknown-op", "%a = li 1 bs=8\n%b = frob %a bs=8", 2, ClassOpcode},
		{"non-compute-op", "%a = read b0.s0.t0.d0.r0", 1, ClassOpcode},
		{"no-operands", "%a = add bs=8", 1, ClassArity},
		// Legalizer: arity, immediates, shift ranges.
		{"not-too-many", "%a = li 1 bs=8\n%b = not %a, %a bs=8\nstore %b, b0.s0.t1.d0.r0", 2, ClassArity},
		{"div-too-few", "%a = li 1 bs=8\n%b = div %a bs=8\nstore %b, b0.s0.t1.d0.r0", 2, ClassArity},
		{"add-too-few", "%a = li 1 bs=8\n%b = add %a bs=8\nstore %b, b0.s0.t1.d0.r0", 2, ClassArity},
		{"nand-over-window", "%a = li 1 bs=8\n%b = nand %a, %a, %a, %a, %a, %a, %a, %a bs=8\nstore %b, b0.s0.t1.d0.r0", 2, ClassArity},
		{"vote-degree-2", "%a = li 1 bs=8\n%c = li 2 bs=8\n%b = vote %a, %c bs=8\nstore %b, b0.s0.t1.d0.r0", 3, ClassArity},
		{"vote-degree-4", "%a = li 1 bs=8\n%b = vote %a, %a, %a, %a bs=8\nstore %b, b0.s0.t1.d0.r0", 2, ClassArity},
		{"shift-out-of-range", "%a = li 1 bs=8\n%b = shl %a bs=8 imm=9\nstore %b, b0.s0.t1.d0.r0", 2, ClassWidth},
		{"imm-on-non-shift", "%a = li 1 bs=8\n%b = add %a, %a bs=8 imm=3\nstore %b, b0.s0.t1.d0.r0", 2, ClassImmediate},
		// Verifier: width dataflow.
		{"operand-width-mismatch", "%a = li 1 bs=8\n%b = li 1 bs=16\n%c = add %a, %b bs=8\nstore %c, b0.s0.t1.d0.r0", 3, ClassWidth},
		{"wide-const-multiplicand", "%a = load b0.s0.t1.d0.r0\n%k = li 20 bs=8\n%m = mult %a, %k bs=8\nstore %m, b0.s0.t1.d0.r1", 3, ClassWidth},
		{"wide-const-fma", "%a = load b0.s0.t1.d0.r0\n%k = li 16 bs=8\n%m = fma %k, %a, %a bs=8\nstore %m, b0.s0.t1.d0.r1", 3, ClassWidth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, cfg, Options{Level: 1})
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.src)
			}
			var pe *isa.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not an *isa.ParseError", err)
			}
			if pe.Line != tc.line {
				t.Errorf("error on line %d, want line %d: %v", pe.Line, tc.line, err)
			}
			if got := ClassOf(err); got != tc.class {
				t.Errorf("error class %q, want %q: %v", got, tc.class, err)
			}
		})
		t.Run(tc.name+"/Vet", func(t *testing.T) {
			for _, d := range Vet(tc.src, cfg) {
				if d.Err {
					if d.Line != tc.line || d.Class != tc.class {
						t.Errorf("first Vet error %v, want line %d class %q", d, tc.line, tc.class)
					}
					return
				}
			}
			t.Errorf("Vet reports no error:\n%s", tc.src)
		})
	}
}

// constStatements returns a program of n distinct constant statements.
func constStatements(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%%r%d = li 1 bs=8\n", i)
	}
	return b.String()
}

// TestVetWarnings pins the warning-severity diagnostics (dead stores
// and unreachable results) on line and class: they must not abort
// compilation, and Vet must surface them.
func TestVetWarnings(t *testing.T) {
	src := `%a = load b0.s0.t1.d0.r0
%dead = li 3 bs=8
%mid = not %a bs=8
%top = not %mid bs=8
store %a, b0.s0.t1.d0.r1
`
	diags := Vet(src, params.DefaultConfig())
	want := []struct {
		line  int
		class ErrorClass
	}{
		{2, ClassDeadStore},   // %dead: never read
		{3, ClassUnreachable}, // %mid: only read by %top, which dies
		{4, ClassDeadStore},   // %top: never read
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Line != w.line || d.Class != w.class || d.Err {
			t.Errorf("diag %d = %v, want warning line %d class %s", i, d, w.line, w.class)
		}
	}
	// Warnings alone must not fail Compile.
	if _, err := Compile(src, testCfg(params.TRD7), Options{Level: 1}); err != nil {
		t.Fatalf("warnings aborted compilation: %v", err)
	}
}

// TestVerifyHandBuiltDAG covers the checks only reachable through a
// programmatically built (or pass-rewritten) DAG: the parser already
// rejects textual use-before-def, but Verify must catch a rewrite that
// makes an operand point at a later definition.
func TestVerifyHandBuiltDAG(t *testing.T) {
	p := &Program{byName: make(map[string]*node), geo: params.DefaultGeometry()}
	a := p.add(&node{kind: nConst, name: "a", line: 1, val: 1, bs: 8})
	op := p.add(&node{kind: nOp, name: "s", line: 2, op: isa.OpAdd, bs: 8, args: []*node{a, a}})
	st := p.add(&node{kind: nStore, srcName: "s", line: 3, args: []*node{op}})
	_ = st

	// Sane program: no diagnostics.
	if diags := p.Verify(); len(diags) != 0 {
		t.Fatalf("clean DAG produced %v", diags)
	}

	// Rewrite the op to consume the store placed after it.
	op.args[1] = st
	diags := p.Verify()
	found := false
	for _, d := range diags {
		if d.Class == ClassUseBeforeDef && d.Err && d.Line == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("forward reference not reported: %v", diags)
	}
}

// TestVetParseFailure: a parse error surfaces as a single classed
// error diagnostic rather than a panic or an empty slice.
func TestVetParseFailure(t *testing.T) {
	diags := Vet("%a = li 300 bs=8", params.DefaultConfig())
	if len(diags) != 1 || !diags[0].Err || diags[0].Class != ClassWidth || diags[0].Line != 1 {
		t.Fatalf("got %v, want one line-1 width-overflow error", diags)
	}
	if !strings.Contains(diags[0].String(), "error: width-overflow") {
		t.Errorf("diagnostic string %q lacks the class", diags[0].String())
	}
	// An over-long program is one too-large error at the first
	// statement past the limit.
	diags = Vet(constStatements(MaxStatements+1), params.DefaultConfig())
	if len(diags) != 1 || !diags[0].Err || diags[0].Class != ClassTooLarge || diags[0].Line != MaxStatements+1 {
		t.Fatalf("got %v, want one too-large error on line %d", diags, MaxStatements+1)
	}
}
