// Package compile implements pimc, the placement-aware compiler from
// pimasm programs to memory execution plans.
//
// A pimasm program is a straight-line sequence of virtual-register
// statements over memory rows:
//
//	%a = load b0.s0.t1.d2.r3
//	%k = li 17 bs=8
//	%s = add %a, %k bs=8
//	%q = div %s, %k bs=8
//	store %q, b0.s0.t2.d0.r1
//
// The compiler parses the program into a dependency DAG, legalizes
// pseudo-ops and over-wide operand lists onto the primitive cpim
// sequences the PIM unit executes, assigns every value a physical home
// row respecting the §III-A staging rule (every operand of a cpim
// instruction must reach the executing DBC's bank over the shared row
// buffer), and schedules independent DAG levels as ExecuteBatch groups.
// The placement pass minimizes cross-DBC row-buffer moves and the
// racetrack shift distance between home rows and the DBC access ports.
package compile

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/isa"
	"repro/internal/params"
)

type nodeKind int

const (
	nLoad  nodeKind = iota // read of a memory row into a vreg
	nConst                 // lane-broadcast immediate
	nOp                    // cpim compute operation
	nStore                 // write of a vreg to a memory row
)

// node is one value (or store effect) in the program DAG.
type node struct {
	id      int
	kind    nodeKind
	name    string // vreg defined here; "" for stores
	srcName string // nStore: the stored vreg's source-level name
	line    int    // 1-based source line (0 for legalizer-inserted nodes)

	op   isa.OpCode // nOp
	bs   int        // blocksize (nConst, nOp; nStore: the stored register's, 0 for a raw load)
	imm  int        // shift amount (shl/shr)
	val  uint64     // nConst
	addr isa.Addr   // nLoad source / nStore destination

	args    []*node
	level   int   // DAG depth: loads/consts 0, ops 1+max(args)
	repl    *node // legalize: the legalized value this statement computes
	partner *node // -O2: the mod of a div (or div of a mod) of the same operands and blocksize

	// Placement results (place.go).
	home   isa.Addr // row where the value lives once defined
	exec   isa.Addr // executing PIM DBC (nOp)
	direct bool     // nStore folded into the producer's request Dst
}

// rem returns the mod whose value op n's request also writes, as its
// remainder: n's partner when n is a paired div, else nil.
func (n *node) rem() *node {
	if n.op == isa.OpDiv {
		return n.partner
	}
	return nil
}

// isRem reports whether op n is a mod whose value its partner div's
// request writes as the remainder, so n issues no request of its own.
func (n *node) isRem() bool { return n.op == isa.OpMod && n.partner != nil }

// Program is a parsed (and, after passes, legalized and placed) pimasm
// program.
type Program struct {
	nodes   []*node
	byName  map[string]*node
	geo     params.Geometry
	inputs  []Output // legalize: the source program's live loads, in order
	outputs []Output // legalize: the source program's stores, in order

	// Every node comes from slab and every operand list from args. A
	// full slab is replaced, never grown, so the nodes handed out
	// already stay where they are.
	slab []node
	args []*node
}

func lineErr(line int, class ErrorClass, format string, args ...any) error {
	return &isa.ParseError{Line: line, Err: &classedError{
		class: class,
		err:   fmt.Errorf("pimc: "+format, args...),
	}}
}

// MaxStatements bounds the statements of one program. Placement and
// scheduling walk the DAG once per level and the parser scans the
// program for each store, so the work grows with the square of the
// program; Parse rejects a longer program (class too-large) before
// any of that runs. The largest program in the tree has about 40
// statements.
const MaxStatements = 1024

// parser is the state of one parse: the program being built and the
// current line's fields.
type parser struct {
	*Program
	fields []string
}

// Parse parses pimasm source, enforcing single assignment,
// define-before-use, geometry-valid addresses and MaxStatements.
// Errors carry 1-based line numbers as *isa.ParseError. The program is
// built on a scratch of its own; Compile parses on a pooled one.
func Parse(src string, g params.Geometry) (*Program, error) {
	s := new(scratch)
	if err := s.parse(src, g); err != nil {
		return nil, err
	}
	return &s.Program, nil
}

// parse parses src into s.Program (see Parse). A program costs no
// allocation on a warm scratch, and a handful on a cold one, not some
// per token: lines are scanned in place, the node slab is sized from
// the line count and the operand array from the % count (each register
// reference has one).
func (s *scratch) parse(src string, g params.Geometry) error {
	lines := min(strings.Count(src, "\n")+1, MaxStatements)
	p := &s.Program
	p.geo = g
	p.nodes = reuse(p.nodes, lines)
	if p.byName == nil {
		p.byName = make(map[string]*node, lines)
	}
	if cap(p.slab) < lines {
		p.slab = make([]node, 0, lines)
	}
	p.args = reuse(p.args, min(strings.Count(src, "%"), maxOperandRefs))
	ps := &s.ps
	ps.Program, ps.fields = p, reuse(ps.fields, 16)
	stmts := 0
	rest, more := src, true
	for ln := 1; more; ln++ {
		var text string
		text, rest, more = strings.Cut(rest, "\n")
		if j := strings.IndexAny(text, ";#"); j >= 0 {
			text = text[:j]
		}
		var comma bool
		clear(ps.fields) // a shorter line must not leave the longer one's fields behind
		ps.fields, comma = splitFields(ps.fields[:0], text)
		if len(ps.fields) == 0 && !comma {
			continue // blank or comment only
		}
		if stmts++; stmts > MaxStatements {
			return lineErr(ln, ClassTooLarge, "program exceeds %d statements", MaxStatements)
		}
		var err error
		switch fields := ps.fields; {
		case len(fields) == 0: // only commas and whitespace
			err = lineErr(ln, ClassSyntax, "want \"%%reg = ...\" or \"store %%reg, <addr>\", got %q", strings.TrimSpace(text))
		case fields[0] == "store":
			err = ps.parseStore(fields, ln)
		case strings.HasPrefix(fields[0], "%"):
			err = ps.parseAssign(fields, ln)
		default:
			err = lineErr(ln, ClassSyntax, "want \"%%reg = ...\" or \"store %%reg, <addr>\", got %q", strings.TrimSpace(text))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// reuse returns buf emptied, on its own array when that holds n
// elements, else on a new one.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// zeroed returns buf resliced to n zero elements, on its own array when
// that holds them, else on a new one.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// maxOperandRefs caps the operand array Parse sizes up front, so a
// source of stray %s cannot ask for a large one; a program with more
// references grows it.
const maxOperandRefs = 16 * MaxStatements

// splitFields appends line's fields to dst: the runs between commas and
// unicode.IsSpace runes, exactly strings.Fields(strings.ReplaceAll(line,
// ",", " ")). comma reports whether the line holds a comma.
func splitFields(dst []string, line string) (fields []string, comma bool) {
	start := -1
	for i, r := range line {
		if r != ',' && !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		comma = comma || r == ','
		if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst, comma
}

// isVReg reports whether s names a register: %, then an ASCII letter
// or underscore, then ASCII letters, digits and underscores.
func isVReg(s string) bool {
	if len(s) < 2 || s[0] != '%' {
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9' && i > 1:
		default:
			return false
		}
	}
	return true
}

func (p *Program) add(n *node) *node {
	n.id = len(p.nodes)
	p.nodes = append(p.nodes, n)
	if n.name != "" {
		p.byName[n.name] = n
	}
	return n
}

// newNode returns a copy of n taken from the slab. When the slab is
// full it starts a new one twice the size, so every node handed out
// keeps its address.
func (p *Program) newNode(n node) *node {
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]node, 0, max(16, 2*cap(p.slab)))
	}
	p.slab = append(p.slab, n)
	return &p.slab[len(p.slab)-1]
}

// list returns the operand references appended to p.args since start
// as one list. The list's capacity ends at its length, so an in-place
// rewrite of one list never reaches the next.
func (p *Program) list(start int) []*node {
	return p.args[start:len(p.args):len(p.args)]
}

// stmt adds a statement's node, taken from the slab, to the program.
func (ps *parser) stmt(n node) *node {
	return ps.add(ps.newNode(n))
}

func (ps *parser) lookup(field string, line int) (*node, error) {
	if !isVReg(field) {
		return nil, lineErr(line, ClassSyntax, "want a %%register, got %q", field)
	}
	n, ok := ps.byName[field[1:]]
	if !ok {
		return nil, lineErr(line, ClassUseBeforeDef, "use of undefined register %s", field)
	}
	return n, nil
}

func (ps *parser) parseAddrIn(field string, line int) (isa.Addr, error) {
	a, err := isa.ParseAddr(field)
	if err != nil {
		return isa.Addr{}, &isa.ParseError{Line: line, Err: &classedError{class: ClassAddress, err: err}}
	}
	if err := a.CheckGeometry(ps.geo); err != nil {
		return isa.Addr{}, &isa.ParseError{Line: line, Err: &classedError{class: ClassAddress, err: err}}
	}
	return a, nil
}

// parseStore handles "store %x, <addr>".
func (ps *parser) parseStore(fields []string, line int) error {
	if len(fields) != 3 {
		return lineErr(line, ClassSyntax, "want \"store %%reg, <addr>\"")
	}
	arg, err := ps.lookup(fields[1], line)
	if err != nil {
		return err
	}
	addr, err := ps.parseAddrIn(fields[2], line)
	if err != nil {
		return err
	}
	for _, n := range ps.nodes {
		if n.kind == nStore && n.addr == addr {
			return lineErr(line, ClassDeadStore, "duplicate store to %s", isa.FormatAddr(addr))
		}
		if n.kind == nLoad && n.addr == addr {
			return lineErr(line, ClassAddress, "store to loaded address %s (loads read initial memory)", isa.FormatAddr(addr))
		}
	}
	start := len(ps.args)
	ps.args = append(ps.args, arg)
	ps.stmt(node{kind: nStore, srcName: arg.name, line: line, bs: arg.bs, addr: addr, args: ps.list(start)})
	return nil
}

// parseAssign handles "%x = load <addr>", "%x = li <val> [bs=N]" and
// "%x = <op> %a[, %b ...] [bs=N] [imm=N]".
func (ps *parser) parseAssign(fields []string, line int) error {
	if len(fields) < 3 || fields[1] != "=" {
		return lineErr(line, ClassSyntax, "want \"%%reg = <expr>\"")
	}
	if !isVReg(fields[0]) {
		return lineErr(line, ClassSyntax, "bad register name %q", fields[0])
	}
	name := fields[0][1:]
	if _, dup := ps.byName[name]; dup {
		return lineErr(line, ClassRedefinition, "register %%%s assigned twice", name)
	}
	expr, rest := fields[2], fields[3:]

	switch expr {
	case "load":
		if len(rest) != 1 {
			return lineErr(line, ClassSyntax, "want \"load <addr>\"")
		}
		addr, err := ps.parseAddrIn(rest[0], line)
		if err != nil {
			return err
		}
		for _, n := range ps.nodes {
			if n.kind == nStore && n.addr == addr {
				return lineErr(line, ClassAddress, "load of stored address %s (loads read initial memory)", isa.FormatAddr(addr))
			}
		}
		ps.stmt(node{kind: nLoad, name: name, line: line, addr: addr})
		return nil

	case "li":
		if len(rest) < 1 {
			return lineErr(line, ClassSyntax, "want \"li <value> [bs=N]\"")
		}
		val, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return lineErr(line, ClassSyntax, "bad immediate %q: %v", rest[0], err)
		}
		bs, _, err := parseArgs(rest[1:], line, false)
		if err != nil {
			return err
		}
		if bs > 64 {
			return lineErr(line, ClassWidth, "li blocksize %d exceeds 64", bs)
		}
		if bs < 64 && val>>uint(bs) != 0 {
			return lineErr(line, ClassWidth, "immediate %d does not fit %d bits", val, bs)
		}
		ps.stmt(node{kind: nConst, name: name, line: line, val: val, bs: bs})
		return nil
	}

	op, ok := isa.OpByName(expr)
	if !ok && expr != "sub" {
		return lineErr(line, ClassOpcode, "unknown operation %q", expr)
	}
	if ok {
		switch op {
		case isa.OpRead, isa.OpWrite, isa.OpNop:
			return lineErr(line, ClassOpcode, "%v is not a compute operation (use load/store)", op)
		}
	}
	start, i := len(ps.args), 0
	for ; i < len(rest) && strings.HasPrefix(rest[i], "%"); i++ {
		a, err := ps.lookup(rest[i], line)
		if err != nil {
			return err
		}
		ps.args = append(ps.args, a)
	}
	if i == 0 {
		return lineErr(line, ClassArity, "%s wants at least one %%register operand", expr)
	}
	bs, imm, err := parseArgs(rest[i:], line, true)
	if err != nil {
		return err
	}
	if expr == "sub" {
		op = opSub
	}
	ps.stmt(node{kind: nOp, name: name, line: line, op: op, bs: bs, imm: imm, args: ps.list(start)})
	return nil
}

// opSub is the two's-complement subtraction pseudo-op, lowered by
// legalize onto not + add-with-one.
const opSub isa.OpCode = -1

// parseArgs parses trailing "bs=N" / "imm=N" arguments.
func parseArgs(fields []string, line int, allowImm bool) (bs, imm int, err error) {
	bs = 8
	for _, f := range fields {
		key, val, found := strings.Cut(f, "=")
		n, aerr := strconv.Atoi(val)
		if !found || aerr != nil {
			return 0, 0, lineErr(line, ClassSyntax, "bad argument %q", f)
		}
		switch {
		case key == "bs":
			bs = n
		case key == "imm" && allowImm:
			imm = n
		default:
			return 0, 0, lineErr(line, ClassSyntax, "unknown argument %q", key)
		}
	}
	if !params.ValidBlockSize(bs) {
		return 0, 0, lineErr(line, ClassWidth, "invalid blocksize %d", bs)
	}
	return bs, imm, nil
}

// String renders the program one statement per line, in the source
// syntax (legalizer-inserted registers are numbered ·N).
func (p *Program) String() string {
	var b strings.Builder
	for _, n := range p.nodes {
		switch n.kind {
		case nLoad:
			fmt.Fprintf(&b, "%%%s = load %s\n", n.name, isa.FormatAddr(n.addr))
		case nConst:
			fmt.Fprintf(&b, "%%%s = li %d bs=%d\n", n.name, n.val, n.bs)
		case nOp:
			regs := make([]string, len(n.args))
			for i, a := range n.args {
				regs[i] = "%" + a.name
			}
			opName := "sub"
			if n.op != opSub {
				opName = n.op.String()
			}
			fmt.Fprintf(&b, "%%%s = %s %s bs=%d", n.name, opName, strings.Join(regs, ", "), n.bs)
			if n.imm != 0 {
				fmt.Fprintf(&b, " imm=%d", n.imm)
			}
			b.WriteByte('\n')
		case nStore:
			fmt.Fprintf(&b, "store %%%s, %s\n", n.args[0].name, isa.FormatAddr(n.addr))
		}
	}
	return b.String()
}
