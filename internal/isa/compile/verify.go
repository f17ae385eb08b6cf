package compile

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/params"
)

// ErrorClass names the rejection (or warning) category of a compiler
// diagnostic, so tests and tools can assert on the class instead of
// matching message fragments. Every error produced by parse, legalize
// and verify carries one; extract it with ClassOf.
type ErrorClass string

// The diagnostic classes. Parse and legalize reject syntax, address,
// redefinition, opcode, arity, immediate and width problems, and
// programs longer than MaxStatements (too-large); the verify pass adds
// the dataflow classes (use-before-def on hand-built DAGs,
// width-overflow across defs and uses, dead-store and
// unreachable-result warnings).
const (
	ClassSyntax       ErrorClass = "syntax"
	ClassAddress      ErrorClass = "address"
	ClassRedefinition ErrorClass = "redefinition"
	ClassUseBeforeDef ErrorClass = "use-before-def"
	ClassOpcode       ErrorClass = "opcode"
	ClassArity        ErrorClass = "arity"
	ClassImmediate    ErrorClass = "immediate"
	ClassWidth        ErrorClass = "width-overflow"
	ClassDeadStore    ErrorClass = "dead-store"
	ClassUnreachable  ErrorClass = "unreachable-result"
	ClassTooLarge     ErrorClass = "too-large"
)

// classedError tags an error with its ErrorClass. The message is the
// wrapped error's, unchanged; the class travels out of band via ClassOf.
type classedError struct {
	class ErrorClass
	err   error
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

// ClassOf returns the ErrorClass carried by err (typically inside an
// *isa.ParseError), or "" when err carries none.
func ClassOf(err error) ErrorClass {
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	return ""
}

// Diag is one verifier diagnostic. Err discriminates hard errors (the
// program cannot execute as written: use-before-def, width-overflow)
// from warnings (it executes but wastes rows: dead-store,
// unreachable-result).
type Diag struct {
	Line  int
	Class ErrorClass
	Err   bool
	Msg   string
}

func (d Diag) String() string {
	sev := "warning"
	if d.Err {
		sev = "error"
	}
	return fmt.Sprintf("line %d: %s: %s: %s", d.Line, sev, d.Class, d.Msg)
}

// Verify is the IR dataflow verifier, run automatically by Compile
// between parse and placement (and exposed to `pimasm vet`). It checks
// the DAG invariants the parser cannot see once programs are built or
// rewritten programmatically:
//
//   - use-before-def: every operand must be defined by an earlier node
//     (guards hand-built or pass-rewritten DAGs; text programs are
//     already rejected by the parser);
//   - width-overflow: a value defined at one blocksize used by an op of
//     another reinterprets lane boundaries, and a constant multiplicand
//     wider than bs/2 overflows the multiplier's input range;
//   - dead-store: a register written but never read occupies a home row
//     for nothing (the legalizer's DCE silently drops it);
//   - unreachable-result: a register whose value never reaches a store
//     — it is read, but only by other dead values.
//
// Diagnostics come back sorted by line. Errors abort compilation;
// warnings are reported only by Vet (`pimasm vet`).
func (p *Program) Verify() []Diag { return p.verify(true) }

// verify runs the checks Verify documents. Compile needs only the
// errors, so without warn it builds no liveness sets and formats no
// warning: a program that passes costs no allocation.
func (p *Program) verify(warn bool) []Diag {
	var diags []Diag
	report := func(n *node, class ErrorClass, isErr bool, format string, args ...any) {
		diags = append(diags, Diag{Line: n.line, Class: class, Err: isErr, Msg: fmt.Sprintf(format, args...)})
	}

	// Forward structural pass: definition order and operand widths.
	for _, n := range p.nodes {
		for _, a := range n.args {
			if a == nil || a.id >= n.id {
				report(n, ClassUseBeforeDef, true,
					"%s uses a value defined later in the program", describe(n))
				continue
			}
			if n.kind == nOp && a.bs > 0 && a.bs != n.bs {
				report(n, ClassWidth, true,
					"operand %%%s has blocksize %d but %s executes at bs=%d (lane boundaries differ)",
					a.name, a.bs, describe(n), n.bs)
			}
		}
		if n.kind == nOp && (n.op == isa.OpMult || n.op == isa.OpFma) {
			for _, a := range n.args[:min(2, len(n.args))] {
				if a != nil && a.kind == nConst && n.bs < 64 && a.val>>(uint(n.bs)/2) != 0 {
					report(n, ClassWidth, true,
						"constant multiplicand %d exceeds the %d-bit input range of %v at bs=%d",
						a.val, n.bs/2, n.op, n.bs)
				}
			}
		}
	}

	if !warn {
		sortDiags(diags)
		return diags
	}

	// Backward liveness from the stores: defs nothing reads are dead
	// row writes; defs that are read, but only by dead values, can
	// never reach memory.
	used := make([]bool, len(p.nodes))
	for _, n := range p.nodes {
		for _, a := range n.args {
			used[a.id] = true
		}
	}
	live := liveSet(nil, p.nodes)
	for _, n := range p.nodes {
		if n.kind == nStore {
			continue
		}
		switch {
		case !used[n.id]:
			report(n, ClassDeadStore, false,
				"%%%s is written but never read (dead row write; it will be dropped)", n.name)
		case !live[n.id]:
			report(n, ClassUnreachable, false,
				"%%%s never reaches a store: every use feeds a dead value", n.name)
		}
	}

	sortDiags(diags)
	return diags
}

// sortDiags orders diagnostics by line, keeping the order of one line's.
func sortDiags(diags []Diag) {
	if len(diags) > 1 {
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Line < diags[j].Line })
	}
}

// describe names a node for diagnostics.
func describe(n *node) string {
	switch n.kind {
	case nStore:
		return fmt.Sprintf("store to %s", isa.FormatAddr(n.addr))
	case nOp:
		return fmt.Sprintf("%%%s = %s", n.name, opName(n.op))
	default:
		return "%" + n.name
	}
}

// firstError returns the first error-severity diagnostic as an
// *isa.ParseError, or nil.
func firstError(diags []Diag) error {
	for _, d := range diags {
		if d.Err {
			return &isa.ParseError{Line: d.Line, Err: &classedError{
				class: d.Class,
				err:   fmt.Errorf("pimc: %s", d.Msg),
			}}
		}
	}
	return nil
}

// Vet parses and verifies a pimasm program without compiling it,
// returning every diagnostic sorted by line: the verifier's, and every
// operand-count and immediate rejection (checkOp) legalization would
// make of a live op, with the line and class Compile reports it with. A
// parse failure comes back as a single error-severity Diag (the parser
// stops at the first problem).
func Vet(src string, cfg params.Config) []Diag {
	prog, err := Parse(src, cfg.Geometry)
	if err != nil {
		return []Diag{diagOf(err)}
	}
	diags := prog.Verify()
	live := liveSet(nil, prog.nodes)
	for _, n := range prog.nodes {
		if n.kind == nOp && live[n.id] {
			if err := checkOp(n, cfg.TRD); err != nil {
				diags = append(diags, diagOf(err))
			}
		}
	}
	sortDiags(diags)
	return diags
}

// diagOf turns a parse or legalize rejection into an error-severity
// Diag on its line and class.
func diagOf(err error) Diag {
	d := Diag{Line: 0, Class: ClassSyntax, Err: true, Msg: err.Error()}
	var pe *isa.ParseError
	if errors.As(err, &pe) {
		d.Line, d.Msg = pe.Line, pe.Err.Error()
	}
	if c := ClassOf(err); c != "" {
		d.Class = c
	}
	return d
}
