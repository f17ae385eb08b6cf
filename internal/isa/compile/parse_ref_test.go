package compile

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/params"
)

// The reference front end: the pimasm parser as it read before Parse
// scanned lines in place. Each line is split with strings.Split,
// strings.ReplaceAll and strings.Fields, register names are matched by
// a regexp, addresses are split with strings.Split, and every node and
// operand list is allocated on its own. FuzzParseMatchesReference holds
// Parse to it.

var refVregRe = regexp.MustCompile(`^%[A-Za-z_][A-Za-z0-9_]*$`)

type refProgram struct{ *Program }

func refParse(src string, g params.Geometry) (*Program, error) {
	p := &refProgram{&Program{byName: make(map[string]*node), geo: g}}
	stmts := 0
	for i, raw := range strings.Split(src, "\n") {
		ln := i + 1
		text := raw
		if j := strings.IndexAny(text, ";#"); j >= 0 {
			text = text[:j]
		}
		if strings.TrimSpace(text) == "" {
			continue
		}
		if stmts++; stmts > MaxStatements {
			return nil, lineErr(ln, ClassTooLarge, "program exceeds %d statements", MaxStatements)
		}
		fields := strings.Fields(strings.ReplaceAll(text, ",", " "))
		var err error
		switch {
		case len(fields) == 0: // only commas and whitespace
			err = lineErr(ln, ClassSyntax, "want \"%%reg = ...\" or \"store %%reg, <addr>\", got %q", strings.TrimSpace(text))
		case fields[0] == "store":
			err = p.parseStore(fields, ln)
		case strings.HasPrefix(fields[0], "%"):
			err = p.parseAssign(fields, ln)
		default:
			err = lineErr(ln, ClassSyntax, "want \"%%reg = ...\" or \"store %%reg, <addr>\", got %q", strings.TrimSpace(text))
		}
		if err != nil {
			return nil, err
		}
	}
	return p.Program, nil
}

func (p *refProgram) add(n *node) *node {
	n.id = len(p.nodes)
	p.nodes = append(p.nodes, n)
	if n.name != "" {
		p.byName[n.name] = n
	}
	return n
}

func (p *refProgram) lookup(field string, line int) (*node, error) {
	if !refVregRe.MatchString(field) {
		return nil, lineErr(line, ClassSyntax, "want a %%register, got %q", field)
	}
	n, ok := p.byName[field[1:]]
	if !ok {
		return nil, lineErr(line, ClassUseBeforeDef, "use of undefined register %s", field)
	}
	return n, nil
}

func (p *refProgram) parseAddrIn(field string, line int) (isa.Addr, error) {
	a, err := refParseAddr(field)
	if err != nil {
		return isa.Addr{}, &isa.ParseError{Line: line, Err: &classedError{class: ClassAddress, err: err}}
	}
	if err := a.CheckGeometry(p.geo); err != nil {
		return isa.Addr{}, &isa.ParseError{Line: line, Err: &classedError{class: ClassAddress, err: err}}
	}
	return a, nil
}

func (p *refProgram) parseStore(fields []string, line int) error {
	if len(fields) != 3 {
		return lineErr(line, ClassSyntax, "want \"store %%reg, <addr>\"")
	}
	arg, err := p.lookup(fields[1], line)
	if err != nil {
		return err
	}
	addr, err := p.parseAddrIn(fields[2], line)
	if err != nil {
		return err
	}
	for _, n := range p.nodes {
		if n.kind == nStore && n.addr == addr {
			return lineErr(line, ClassDeadStore, "duplicate store to %s", isa.FormatAddr(addr))
		}
		if n.kind == nLoad && n.addr == addr {
			return lineErr(line, ClassAddress, "store to loaded address %s (loads read initial memory)", isa.FormatAddr(addr))
		}
	}
	p.add(&node{kind: nStore, srcName: arg.name, line: line, bs: arg.bs, addr: addr, args: []*node{arg}})
	return nil
}

func (p *refProgram) parseAssign(fields []string, line int) error {
	if len(fields) < 3 || fields[1] != "=" {
		return lineErr(line, ClassSyntax, "want \"%%reg = <expr>\"")
	}
	if !refVregRe.MatchString(fields[0]) {
		return lineErr(line, ClassSyntax, "bad register name %q", fields[0])
	}
	name := fields[0][1:]
	if _, dup := p.byName[name]; dup {
		return lineErr(line, ClassRedefinition, "register %%%s assigned twice", name)
	}
	expr, rest := fields[2], fields[3:]

	switch expr {
	case "load":
		if len(rest) != 1 {
			return lineErr(line, ClassSyntax, "want \"load <addr>\"")
		}
		addr, err := p.parseAddrIn(rest[0], line)
		if err != nil {
			return err
		}
		for _, n := range p.nodes {
			if n.kind == nStore && n.addr == addr {
				return lineErr(line, ClassAddress, "load of stored address %s (loads read initial memory)", isa.FormatAddr(addr))
			}
		}
		p.add(&node{kind: nLoad, name: name, line: line, addr: addr})
		return nil

	case "li":
		if len(rest) < 1 {
			return lineErr(line, ClassSyntax, "want \"li <value> [bs=N]\"")
		}
		val, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return lineErr(line, ClassSyntax, "bad immediate %q: %v", rest[0], err)
		}
		bs, _, err := refParseArgs(rest[1:], line, false)
		if err != nil {
			return err
		}
		if bs > 64 {
			return lineErr(line, ClassWidth, "li blocksize %d exceeds 64", bs)
		}
		if bs < 64 && val>>uint(bs) != 0 {
			return lineErr(line, ClassWidth, "immediate %d does not fit %d bits", val, bs)
		}
		p.add(&node{kind: nConst, name: name, line: line, val: val, bs: bs})
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
	var args []*node
	i := 0
	for ; i < len(rest) && strings.HasPrefix(rest[i], "%"); i++ {
		a, err := p.lookup(rest[i], line)
		if err != nil {
			return err
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return lineErr(line, ClassArity, "%s wants at least one %%register operand", expr)
	}
	bs, imm, err := refParseArgs(rest[i:], line, true)
	if err != nil {
		return err
	}
	n := &node{kind: nOp, name: name, line: line, op: op, bs: bs, imm: imm, args: args}
	if expr == "sub" {
		n.op = opSub
	}
	p.add(n)
	return nil
}

func refParseArgs(fields []string, line int, allowImm bool) (bs, imm int, err error) {
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

// refParseAddr is isa.ParseAddr as it read before it cut the fields
// off in place.
func refParseAddr(s string) (isa.Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 5 {
		return isa.Addr{}, fmt.Errorf("isa: address %q wants b<n>.s<n>.t<n>.d<n>.r<n>", s)
	}
	var a isa.Addr
	for i, spec := range []struct {
		prefix string
		dst    *int
	}{
		{"b", &a.Bank}, {"s", &a.Subarray}, {"t", &a.Tile}, {"d", &a.DBC}, {"r", &a.Row},
	} {
		p := parts[i]
		if !strings.HasPrefix(p, spec.prefix) {
			return isa.Addr{}, fmt.Errorf("isa: address field %q wants prefix %q", p, spec.prefix)
		}
		n, err := strconv.Atoi(p[len(spec.prefix):])
		if err != nil {
			return isa.Addr{}, fmt.Errorf("isa: address field %q: %w", p, err)
		}
		*spec.dst = n
	}
	return a, nil
}

// refSeeds add the inputs where a hand-written scanner is most likely
// to part from strings.Fields, regexp and strings.Split: every
// unicode.IsSpace class (tab, \v, \f, \r, U+0085, U+00A0, U+3000),
// control characters that are not spaces, lines of nothing but commas,
// invalid UTF-8, odd register names and malformed addresses.
var refSeeds = []string{
	"%a = load b0.s0.t1.d0.r0\t\n%k\v=\vli 7 bs=8\f\nstore %a,\tb0.s0.t2.d0.r1\r\n",
	"%a = li 1 bs=8\u0085\nstore\u00a0%a, b0.s0.t1.d0.r0",
	"%a\u3000=\u3000li 2 bs=8\nstore %a,\u2028b0.s0.t1.d0.r0\n",
	" \u0085\u3000\u00a0\n%a = li 3 bs=8\u00a0\nstore %a, b0.s0.t1.d0.r0",
	",,,\n",
	" , ,\t,\n%a = li 1 bs=8",
	"%a = li 1 bs=8\n,\nstore %a, b0.s0.t1.d0.r0",
	"%a = li 1 bs=8,,\nstore %a,,, b0.s0.t1.d0.r0,",
	"%a = li 1\x01 bs=8\nstore %a, b0.s0.t1.d0.r0",
	"%a\x00 = li 1 bs=8",
	"%a = li 1 bs=8\xff\n",
	"%\xffa = li 1 bs=8",
	"%a = li 1 bs=8\nstore %a, b0.s0.t1.d0.r0\xc3",
	"%1a = li 1 bs=8",
	"%_a9 = li 1 bs=8\n%B_ = add %_a9, %_a9 bs=8\nstore %B_, b0.s0.t1.d0.r0",
	"%\u00e9 = li 1 bs=8",
	"% = li 1 bs=8",
	"%a = li 1 bs=8\n%b = add %a, %a% bs=8",
	"%a = load b0.s0.t1.d0",
	"%a = load b0.s0.t1.d0.r0.x",
	"%a = load x0.s0.t1.d0.r0",
	"%a = load b0.s0.t1.d0.r",
	"%a = load b0..t1.d0.r0",
	"%a = load b0.s0.t1.d0.r+1",
	"%a = load b-1.s0.t0.d0.r0",
	"%a = load b0.s0.t1.d0.r99999999999999999999",
	"%a = load ....",
	"%a = load b0.s0.t1.d0.r0.",
	"%a = load .b0.s0.t1.d0.r0",
	"%a = load b0.s0.t1.d0.r0x",
	"%a = load B0.s0.t1.d0.r0",
	"store %a, b0.s0.t1.d0.r0",
	"%a = li 1 bs=8 ; x,y\n# %b\nstore %a, b0.s0.t1.d0.r0 # done",
}

// FuzzParseMatchesReference holds Parse to the reference front end on
// arbitrary source: the two accept together or reject together; an
// accepted program has the same nodes, operands, lines and String(); a
// rejection has the same error text, line and class. It also holds
// isa.ParseAddr to the reference address parser, on the source and on
// each of its fields.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range append(parseSeeds, refSeeds...) {
		f.Add(s)
	}
	g := params.DefaultGeometry()
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := Parse(src, g)
		want, wantErr := refParse(src, g)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse error %v, reference error %v\nsource: %q", gotErr, wantErr, src)
		}
		if gotErr != nil {
			if diff := errorDiff(gotErr, wantErr); diff != "" {
				t.Fatalf("%s\nsource: %q", diff, src)
			}
		} else if diff := programDiff(got, want); diff != "" {
			t.Fatalf("%s\nsource: %q", diff, src)
		}
		for _, s := range append(strings.Fields(src), src) {
			a, err := isa.ParseAddr(s)
			ra, rerr := refParseAddr(s)
			if a != ra || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("ParseAddr(%q) = %v, %v; reference %v, %v", s, a, err, ra, rerr)
			}
		}
	})
}

// errorDiff describes how two parse rejections differ in text, line or
// class, or returns "".
func errorDiff(got, want error) string {
	var gp, wp *isa.ParseError
	switch {
	case got.Error() != want.Error():
		return fmt.Sprintf("error %q, reference %q", got, want)
	case !errors.As(got, &gp) || !errors.As(want, &wp) || gp.Line != wp.Line:
		return fmt.Sprintf("error line differs: %#v vs %#v", got, want)
	case ClassOf(got) != ClassOf(want):
		return fmt.Sprintf("error class %q, reference %q", ClassOf(got), ClassOf(want))
	}
	return ""
}

// programDiff describes the first difference between two parsed
// programs, node by node, or returns "".
func programDiff(got, want *Program) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("String():\n%s\nreference:\n%s", g, w)
	}
	if len(got.nodes) != len(want.nodes) || len(got.byName) != len(want.byName) {
		return fmt.Sprintf("%d nodes, %d names; reference %d, %d", len(got.nodes), len(got.byName), len(want.nodes), len(want.byName))
	}
	for i, g := range got.nodes {
		w := want.nodes[i]
		gs := fmt.Sprintf("%d %d %q %q line %d op %d bs %d imm %d val %d %v", g.id, g.kind, g.name, g.srcName, g.line, g.op, g.bs, g.imm, g.val, g.addr)
		ws := fmt.Sprintf("%d %d %q %q line %d op %d bs %d imm %d val %d %v", w.id, w.kind, w.name, w.srcName, w.line, w.op, w.bs, w.imm, w.val, w.addr)
		if gs != ws || len(g.args) != len(w.args) {
			return fmt.Sprintf("node %d: %s (%d args); reference %s (%d args)", i, gs, len(g.args), ws, len(w.args))
		}
		for j, a := range g.args {
			if a.id != w.args[j].id {
				return fmt.Sprintf("node %d operand %d is node %d; reference %d", i, j, a.id, w.args[j].id)
			}
		}
		if cap(g.args) != len(g.args) {
			return fmt.Sprintf("node %d: operand list has capacity %d past its %d operands", i, cap(g.args), len(g.args))
		}
		if got.byName[g.name] != g && g.name != "" {
			return fmt.Sprintf("node %d: name %q resolves elsewhere", i, g.name)
		}
	}
	return ""
}
