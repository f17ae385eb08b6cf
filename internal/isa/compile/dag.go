package compile

import (
	"strconv"

	"repro/internal/isa"
	"repro/internal/params"
)

// legalize lowers p's DAG onto operations the PIM unit executes
// directly: the sub pseudo-op becomes not + add-with-one on the carry
// chain, and associative operations whose operand lists exceed the
// TR-window capacity are split into chains. Unreachable values are
// dropped (they feed no store). The pass rewrites p.nodes and records
// the source program's live loads and its stores, the plan's inputs
// and outputs, in p.inputs and p.outputs, carved from one array.
//
// From level 1 up the walk also numbers values and folds lane-exact
// identities, so the plan computes each value once and issues no
// kernel it can prove redundant; see number and simplify. At level 2
// it also pairs each live div with the live mod of the same operands
// and blocksize, so one DivMod request computes both. At level 0 every
// statement is computed as written: the naive baseline shares only the
// legalizer's own constants.
func (lz *legalizer) legalize(p *Program, trd params.TRD, level int) error {
	if lz.values == nil {
		// Only -O1 and up number every value; at -O0 the map holds the
		// legalizer's own constants, usually none to two.
		values := 0
		if level >= 1 {
			values = len(p.nodes)
		}
		lz.values = make(map[vkey]*node, values)
	}
	lz.p, lz.nodes = p, reuse(lz.nodes, len(p.nodes)+8)
	lz.trd, lz.opt, lz.pair = trd, level >= 1, level >= 2
	lz.synth, lz.folded = 0, false
	lz.live = liveSet(lz.live, p.nodes)
	nLoads, nStores := 0, 0
	for _, n := range p.nodes {
		switch {
		case n.kind == nLoad && lz.live[n.id]:
			nLoads++
		case n.kind == nStore:
			nStores++
		}
	}
	outs := make([]Output, 0, nLoads+nStores)
	p.inputs, p.outputs = outs[:0:nLoads], outs[nLoads:nLoads]
	for _, n := range p.nodes {
		if n.kind != nStore && !lz.live[n.id] {
			continue
		}
		switch n.kind {
		case nLoad:
			p.inputs = append(p.inputs, Output{Name: n.name, Addr: n.addr})
			n.repl = lz.number(n)
		case nConst:
			n.repl = lz.number(n)
		case nStore:
			p.outputs = append(p.outputs, Output{Name: n.srcName, Addr: n.addr, Blocksize: n.bs})
			n.args[0] = n.args[0].repl
			lz.add(n)
		case nOp:
			if err := checkOp(n, trd); err != nil {
				return err
			}
			for i, a := range n.args {
				n.args[i] = a.repl
			}
			n.repl = lz.op(n)
		}
	}
	if lz.folded {
		lz.dropDead()
	}
	// The legalized list becomes the program's; the parsed one stays
	// with the legalizer as its next buffer.
	p.nodes, lz.nodes = lz.nodes, p.nodes
	return nil
}

// legalizer is the state of one legalize walk.
type legalizer struct {
	p      *Program
	nodes  []*node        // the legalized program, in emission order
	values map[vkey]*node // value numbering: the node computing each value
	live   []bool         // per parsed node id: a store reaches it; dropDead's per legalized id
	names  []string       // ·1, ·2, ...: legalizer register names, made once
	trd    params.TRD
	opt    bool // -O1 and up: number values and fold identities
	pair   bool // -O2: pair div and mod of the same operands
	synth  int  // legalizer registers named so far
	folded bool // an identity fired, so emitted values may have lost their last use
}

// vkey identifies a value: a load by its row, a constant by its value
// and blocksize, an op by its opcode, blocksize, immediate and
// operands. The operands of add, and, or, xor, max and mult are
// sorted, so those number as multisets. The fields are narrow because
// a compile keeps one key per value.
type vkey struct {
	kind     nodeKind
	op       isa.OpCode
	bs, imm  int32
	val      uint64             // nConst: the value; nLoad: the row's linear index
	operands [params.TRD7]int32 // operand id+1 per operand, 0 past the last; a legal op reads at most TRD7
}

func (lz *legalizer) key(n *node) vkey {
	k := vkey{kind: n.kind, op: n.op, bs: int32(n.bs), imm: int32(n.imm), val: n.val}
	if n.kind == nLoad {
		k.val = uint64(n.addr.Linear(lz.p.geo))
	}
	for i, a := range n.args {
		k.operands[i] = int32(a.id + 1)
	}
	switch n.op {
	case isa.OpAdd, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMax, isa.OpMult:
		ids := k.operands[:len(n.args)]
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
	}
	return k
}

func (lz *legalizer) add(n *node) *node {
	n.id = len(lz.nodes)
	lz.nodes = append(lz.nodes, n)
	return n
}

// name returns the next legalizer register name: ·1, ·2, ... The names
// do not depend on the program, so each is made once per legalizer.
func (lz *legalizer) name() string {
	lz.synth++
	if lz.synth > len(lz.names) {
		lz.names = append(lz.names, "·"+strconv.Itoa(lz.synth))
	}
	return lz.names[lz.synth-1]
}

// fresh makes a legalizer register computing op over args.
func (lz *legalizer) fresh(op isa.OpCode, bs int, args []*node) *node {
	return lz.p.newNode(node{kind: nOp, name: lz.name(), op: op, bs: bs, args: args})
}

// operands returns the references as one operand list, copied into
// the program's operand array.
func (lz *legalizer) operands(refs ...*node) []*node {
	start := len(lz.p.args)
	lz.p.args = append(lz.p.args, refs...)
	return lz.p.list(start)
}

// number returns the value n computes: the node emitted earlier for an
// equal value, else n itself, emitted now. Without opt every statement
// is its own value. With pair, a div or mod emitted now is paired with
// its partner, found under its own value number with the opcode
// swapped.
func (lz *legalizer) number(n *node) *node {
	if !lz.opt {
		return lz.add(n)
	}
	k := lz.key(n)
	if v, ok := lz.values[k]; ok {
		return v
	}
	lz.values[k] = lz.add(n)
	if lz.pair && (n.op == isa.OpDiv || n.op == isa.OpMod) {
		k.op = isa.OpDiv + isa.OpMod - n.op
		if m, ok := lz.values[k]; ok {
			n.partner, m.partner = m, n
		}
	}
	return n
}

// konst returns the constant val at blocksize bs. It is numbered at
// every level, so the legalizer's own constants (sub's 1, a fold's 0)
// take one row per value and blocksize even at -O0.
func (lz *legalizer) konst(val uint64, bs int) *node {
	k := lz.key(&node{kind: nConst, val: val, bs: bs})
	if c, ok := lz.values[k]; ok {
		return c
	}
	c := lz.add(lz.p.newNode(node{kind: nConst, name: lz.name(), val: val, bs: bs}))
	lz.values[k] = c
	return c
}

// op lowers op n, whose operands are legalized values, and returns the
// value it computes. The identities hold bit for bit only where every
// lane is whole, so a blocksize that does not divide the track width
// is not folded.
func (lz *legalizer) op(n *node) *node {
	if lz.opt && lz.p.geo.TrackWidth%n.bs == 0 {
		if v := lz.simplify(n); v != nil {
			return v
		}
	}
	maxAdd, maxBulk := lz.trd.MaxAddOperands(), lz.trd.MaxBulkOperands()
	switch n.op {
	case opSub:
		// a - b = a + ~b + 1 on the carry chain.
		nb := lz.op(lz.fresh(isa.OpNot, n.bs, n.args[1:2]))
		if maxAdd >= 3 {
			return lz.op(lz.fresh(isa.OpAdd, n.bs, lz.operands(n.args[0], nb, lz.konst(1, n.bs))))
		}
		lo := lz.op(lz.fresh(isa.OpAdd, n.bs, lz.operands(n.args[0], nb)))
		return lz.op(lz.fresh(isa.OpAdd, n.bs, lz.operands(lo, lz.konst(1, n.bs))))
	case isa.OpAdd:
		if len(n.args) > maxAdd {
			return lz.chain(n, maxAdd)
		}
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMax:
		if len(n.args) > maxBulk {
			return lz.chain(n, maxBulk)
		}
	}
	return lz.number(n)
}

// chain folds n's operands through repeated at-most-max-operand ops,
// returning the final value.
func (lz *legalizer) chain(n *node, max int) *node {
	args := n.args
	t := lz.op(lz.fresh(n.op, n.bs, args[:max]))
	for i := max; i < len(args); i += max - 1 {
		start := len(lz.p.args)
		lz.p.args = append(append(lz.p.args, t), args[i:min(i+max-1, len(args))]...)
		t = lz.op(lz.fresh(n.op, n.bs, lz.p.list(start)))
	}
	return t
}

// simplify applies the lane-exact identities of unsigned bs-bit lanes
// to op n, whose operands are legalized values. It returns the value n
// folds to, or nil with n rewritten in place (operands dropped, shift
// amounts merged) and still to be lowered:
//
//   - a shift by 0 is its operand; a shift of zero, or by bs or more,
//     is zero; shr(shr(x, a), b) is shr(x, a+b), likewise shl;
//   - a repeated operand of and/or/max collapses, and repeated xor
//     operands cancel in pairs;
//   - a zero operand drops out of add/or/xor/max and makes an and zero;
//   - mult by zero is zero and fma with a zero multiplicand is its
//     addend, but only when the other multiplicand is provably narrow,
//     so a multiply whose operand may overflow still reaches the
//     kernel's run-time lane check;
//   - an op left with one operand is that operand, and with none, zero.
func (lz *legalizer) simplify(n *node) *node {
	bs := n.bs
	switch n.op {
	case isa.OpShl, isa.OpShr:
		x := n.args[0]
		if x.kind == nOp && x.op == n.op {
			n.imm += x.imm
			x = x.args[0]
			n.args[0] = x
			lz.folded = true
		}
		switch {
		case n.imm == 0:
			return lz.fold(x)
		case n.imm >= bs || isZero(x):
			return lz.fold(lz.konst(0, bs))
		}
	case isa.OpMult, isa.OpFma:
		a, b := n.args[0], n.args[1]
		if isZero(a) && narrow(b, bs) || isZero(b) && narrow(a, bs) {
			if n.op == isa.OpFma {
				return lz.fold(n.args[2])
			}
			return lz.fold(lz.konst(0, bs))
		}
	case isa.OpAdd, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMax:
		args := n.args[:0]
	scan:
		for _, a := range n.args {
			if isZero(a) {
				if n.op == isa.OpAnd {
					return lz.fold(lz.konst(0, bs))
				}
				continue
			}
			if n.op != isa.OpAdd {
				for j, b := range args {
					if b == a {
						if n.op == isa.OpXor {
							args = append(args[:j], args[j+1:]...)
						}
						continue scan
					}
				}
			}
			args = append(args, a)
		}
		if len(args) < len(n.args) {
			lz.folded = true
		}
		n.args = args
		switch len(args) {
		case 0:
			return lz.fold(lz.konst(0, bs))
		case 1:
			return lz.fold(args[0])
		}
	}
	return nil
}

// fold notes that an identity replaced an op by the value v.
func (lz *legalizer) fold(v *node) *node {
	lz.folded = true
	return v
}

func isZero(n *node) bool { return n.kind == nConst && n.val == 0 }

// narrow reports whether n provably fits the low half of its bs-bit
// lanes, the multiplier's input range: a constant below 2^(bs/2), or a
// shr by at least bs/2.
func narrow(n *node, bs int) bool {
	switch n.kind {
	case nConst:
		return n.val>>(uint(bs)/2) == 0
	case nOp:
		return n.op == isa.OpShr && n.imm >= bs/2
	}
	return false
}

// dropDead removes the values no store reaches any longer, walking
// back from the stores, and renumbers the survivors densely.
func (lz *legalizer) dropDead() {
	live := zeroed(lz.live, len(lz.nodes))
	lz.live = live
	for i := len(lz.nodes) - 1; i >= 0; i-- {
		n := lz.nodes[i]
		if n.kind != nStore && !live[i] {
			continue
		}
		for _, a := range n.args {
			live[a.id] = true
		}
	}
	kept := lz.nodes[:0]
	for i, n := range lz.nodes {
		if n.kind == nStore || live[i] {
			n.id = len(kept)
			kept = append(kept, n)
		} else if n.partner != nil {
			// A dead div or mod leaves its live partner a request of
			// its own.
			n.partner.partner, n.partner = nil, nil
		}
	}
	// Clear the dropped tail, which the scratch's release no longer sees.
	clear(lz.nodes[len(kept):])
	lz.nodes = kept
}

// checkOp validates operand cardinality and immediates against the op
// and the TR window, before legalization rewrites the lists.
func checkOp(n *node, trd params.TRD) error {
	k, maxBulk := len(n.args), trd.MaxBulkOperands()
	want := -1 // -1: variadic
	switch n.op {
	case isa.OpNot, isa.OpRelu:
		want = 1
	case opSub, isa.OpMult, isa.OpDiv, isa.OpMod:
		want = 2
	case isa.OpFma:
		want = 3
	case isa.OpShl, isa.OpShr:
		want = 1
		if n.imm < 0 || n.imm > n.bs {
			return lineErr(n.line, ClassWidth, "shift amount %d outside 0..%d", n.imm, n.bs)
		}
	case isa.OpAdd, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMax:
		if k < 2 {
			return lineErr(n.line, ClassArity, "%v wants at least 2 operands, got %d", n.op, k)
		}
	case isa.OpNand, isa.OpNor, isa.OpXnor:
		// Not associative: the window capacity is a hard limit.
		if k < 2 || k > maxBulk {
			return lineErr(n.line, ClassArity, "%v wants 2..%d operands (not associative), got %d", n.op, maxBulk, k)
		}
	case isa.OpVote:
		// The window votes only the degrees the kernel does.
		if !trd.ValidNMR(k) {
			return lineErr(n.line, ClassArity, "vote wants 3, 5 or 7 operands within %v, got %d", trd, k)
		}
	default:
		return lineErr(n.line, ClassOpcode, "opcode %v is not compilable", n.op)
	}
	if want >= 0 && k != want {
		return lineErr(n.line, ClassArity, "%v wants %d operand(s), got %d", opName(n.op), want, k)
	}
	if n.imm != 0 && n.op != isa.OpShl && n.op != isa.OpShr {
		return lineErr(n.line, ClassImmediate, "%v takes no immediate", n.op)
	}
	return nil
}

func opName(op isa.OpCode) string {
	if op == opSub {
		return "sub"
	}
	return op.String()
}

// liveSet marks every node reachable backwards from a store, indexed
// by node id (dense in a parsed program), in live's array when it is
// large enough.
func liveSet(live []bool, nodes []*node) []bool {
	live = zeroed(live, len(nodes))
	for _, n := range nodes {
		if n.kind == nStore {
			markLive(live, n)
		}
	}
	return live
}

func markLive(live []bool, n *node) {
	if live[n.id] {
		return
	}
	live[n.id] = true
	for _, a := range n.args {
		markLive(live, a)
	}
}

// levelize assigns ASAP DAG depths: loads and constants are level 0,
// each op is one past its deepest argument, and a store rides at its
// producer's level. Each non-zero level becomes one ExecuteBatch group.
// Returns the deepest level.
func (p *Program) levelize() int {
	deepest := 0
	for _, n := range p.nodes {
		switch n.kind {
		case nLoad, nConst:
			n.level = 0
		case nOp:
			lv := 0
			for _, a := range n.args {
				lv = max(lv, a.level)
			}
			n.level = lv + 1
			deepest = max(deepest, n.level)
		case nStore:
			n.level = n.args[0].level
		}
	}
	return deepest
}
