package compile

import (
	"fmt"
	"strings"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/pim"
)

// StepKind names the shape of a plan step. Every step is an
// ExecuteBatch window, so StepBatch (the zero value) is the only kind.
type StepKind int

// StepBatch marks a step as one ExecuteBatch window.
const StepBatch StepKind = iota

// Step is one ExecuteBatch window of a plan: requests whose DBC
// footprints overlap run in program order as one lane, disjoint ones as
// concurrent lanes. Constant writes, staging and store copies and cpim
// operations are all requests.
type Step struct {
	Kind StepKind
	Reqs []memory.Request
}

// Plan is an executable schedule over a Memory: a sequence of
// ExecuteBatch windows. The naive (-O0) and level-barrier (-O1) plans
// give each constant write and staging copy a window of its own, then
// each op (-O0) or each DAG level (-O1), then each store copy placement
// could not fold away. The pipelined plan (-O2) folds the staging and
// store traffic into the compute windows, so it overlaps with compute.
type Plan struct {
	Steps []Step
}

// buildPlan schedules the placed program. Every request is carved from
// one array and every exec request's operand list from another, both
// sized to the program; there are at most as many windows as requests.
func buildPlan(p *Program, lay *layout) (*Plan, error) {
	if lay.pipeline {
		return buildPipelined(p, lay)
	}
	levels := p.levelize()
	nReqs, nArgs := 0, 0
	for _, n := range p.nodes {
		switch {
		case n.kind == nOp:
			nArgs += len(n.args)
		case n.kind == nLoad && n.home == n.addr, n.kind == nStore && n.direct:
			continue // read in place, or folded into its producer
		}
		nReqs++
	}
	reqs := make([]memory.Request, 0, nReqs)
	backing := make([]isa.Addr, 0, nArgs)
	pl := &Plan{Steps: make([]Step, 0, nReqs)}
	// window closes the requests appended since the previous window
	// into one step; reqs never outgrows its array, so steps stay valid.
	start := 0
	window := func() {
		if len(reqs) > start {
			pl.Steps = append(pl.Steps, Step{Reqs: reqs[start:len(reqs):len(reqs)]})
			start = len(reqs)
		}
	}
	width := lay.geo.TrackWidth
	for _, n := range p.nodes {
		switch {
		case n.kind == nConst:
			row, err := packConst(n.val, n.bs, width)
			if err != nil {
				return nil, fmt.Errorf("pimc: constant %%%s: %w", n.name, err)
			}
			reqs = append(reqs, memory.Request{Kind: memory.KindWrite, Dst: n.home, Row: row})
		case n.kind == nLoad && n.home != n.addr:
			reqs = append(reqs, memory.Request{Kind: memory.KindCopy, Src: n.addr, Dst: n.home})
		}
		window()
	}
	for lv := 1; lv <= levels; lv++ {
		for _, n := range p.nodes {
			if n.kind != nOp || n.level != lv {
				continue
			}
			in := isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}
			first := len(backing)
			for _, a := range n.args {
				backing = append(backing, a.home)
			}
			reqs = append(reqs, memory.Request{In: in, Operands: backing[first:len(backing):len(backing)], Dst: n.home})
			if !lay.opt {
				window() // naive: one serial operation per window
			}
		}
		window()
	}
	for _, n := range p.nodes {
		if n.kind == nStore && !n.direct {
			reqs = append(reqs, memory.Request{Kind: memory.KindCopy, Src: n.args[0].home, Dst: n.addr})
			window()
		}
	}
	return pl, nil
}

// buildPipelined schedules the placed program as overlapped batch
// windows (-O2). Three schedule transformations drive the makespan
// down without changing results:
//
//   - Operand privatization: an operand homed outside its op's
//     executing DBC and companion is copied (constants: lane-broadcast
//     written) into a free row of the companion before the op's
//     window, where the pricer predicts the copy pays for itself.
//     The op's footprint collapses to its own DBC pair, so same-level
//     ops become disjoint parallel lanes instead of one group
//     serialized through a shared operand DBC.
//   - Overlap hoisting: each privatization request is hoisted into the
//     latest earlier compute window whose DBC footprint is disjoint
//     from it — level N+1 staging runs in the same ExecuteBatch window
//     as level N compute. Requests no compute window can absorb drain
//     in a short transfer window right before their level (moving a
//     value in the window that computes or consumes it would re-merge
//     the producer's and consumer's lanes, re-serializing the window).
//   - Staging and store folding: window 0 batches the level-0 staging
//     the privatized schedule still needs, and the trailing store
//     copies drain as one final batch window, instead of a window each.
//
// Correctness rests on ExecuteBatch's footprint grouping (requests of
// one window that touch a common row share its DBC, so they stay in
// program order; disjoint requests commute) plus row-lifetime
// accounting: private rows and place()-recycled home rows carry an
// availFrom window index, and a privatization write never lands in a
// window the row's previous reader has not reached — takePrivate
// enforces it, and same-window reuse is safe because exec requests
// precede the privatization writes appended to their window.
func buildPipelined(p *Program, lay *layout) (*Plan, error) {
	width := lay.geo.TrackWidth
	levels := p.levelize()

	// Level-0 values read through their shared home (store operands,
	// privatization fallbacks, loads whose user row a store clobbers)
	// still need the generic window-0 staging. needHome is indexed by
	// node id, which legalize leaves dense.
	needHome := make([]bool, len(p.nodes))
	var stored []isa.Addr
	nArgs := 0
	for _, n := range p.nodes {
		switch n.kind {
		case nStore:
			stored = append(stored, n.addr)
			if !n.direct && n.args[0].level == 0 {
				needHome[n.args[0].id] = true
			}
		case nOp:
			nArgs += len(n.args)
			if n.rem() != nil {
				nArgs++
			}
		}
	}
	backing := make([]isa.Addr, 0, nArgs) // every exec request's operands and remainder row

	// Window numbering: window 0 stages level 1's operands; level L
	// computes in window 2L-1; transfer window 2L-2 (L >= 2) drains the
	// privatization traffic for level L that no earlier compute window
	// could absorb. The store drain is appended after everything.
	wins := make([][]memory.Request, max(1, 2*levels))
	var occupied []winBase // DBCs each window's requests lock so far
	var privs []privRow
	var bases, freed []isa.Addr
	var ops []*node
	var priv []bool // per operand of the level's ops, in order: privatize it
	var est []int   // per op of the level: predicted cycles, every head at rest
	for lv := 1; lv <= levels; lv++ {
		ops = ops[:0]
		for _, n := range p.nodes {
			if n.kind == nOp && n.level == lv && !n.isRem() {
				ops = append(ops, n)
			}
		}
		// Privatization is cost-driven: an operand homed outside its
		// op's DBC pair moves into the companion only when that shortens
		// the level's predicted window by more than the copy's predicted
		// cycles. Reading a shared home merges the op's lane with every
		// other request touching that DBC; a private copy splits it off,
		// which pays only on the window's longest lane. Start from every
		// such operand privatized and drop, in program order, each copy
		// whose removal costs the window less than the copy itself.
		priv, est = priv[:0], est[:0]
		for _, n := range ops {
			est = append(est, lay.estimate(n))
			for _, a := range n.args {
				priv = append(priv, !lay.pair(n.exec).holds(a.home))
			}
		}
		span := lay.levelSpan(ops, priv, est)
		for i, on := range priv {
			if !on {
				continue
			}
			priv[i] = false
			if without := lay.levelSpan(ops, priv, est); without-span > lay.copyCost(ops, i) {
				priv[i] = true
			} else {
				span = without
			}
		}
		w := 2*lv - 1
		i := 0
		for _, n := range ops {
			e := dbcBase(n.exec)
			comp := lay.pair(e).comp
			start := len(backing)
			for _, a := range n.args {
				home := a.home
				privatize := priv[i]
				i++
				if !privatize {
					backing = append(backing, home)
					if a.level == 0 {
						needHome[a.id] = true
					}
					continue
				}
				k := privKey{val: a, exec: e, lv: lv}
				if row, ok := findPriv(privs, k); ok {
					backing = append(backing, row)
					continue
				}
				req := memory.Request{Kind: memory.KindCopy}
				switch {
				case a.kind == nConst:
					// Constants replicate at the destination: a direct
					// lane-broadcast write, no shared intermediate.
					packed, err := packConst(a.val, a.bs, width)
					if err != nil {
						return nil, fmt.Errorf("pimc: constant %%%s: %w", a.name, err)
					}
					req = memory.Request{Kind: memory.KindWrite, Row: packed}
				case a.kind == nLoad && !containsAddr(stored, a.addr):
					// Loads privatize straight from the user row,
					// skipping the staged intermediate.
					req.Src = a.addr
				default:
					// Op results — and loads whose user row a store
					// clobbers — copy from the value's home.
					if a.level == 0 {
						needHome[a.id] = true
					}
					req.Src = a.home
				}
				bases = append(bases[:0], comp)
				if req.Kind == memory.KindCopy && dbcBase(req.Src) != comp {
					bases = append(bases, dbcBase(req.Src))
				}
				// Hoist into the latest earlier compute window whose
				// footprint is disjoint (never earlier than the window
				// producing the source); else take the transfer window
				// right before this level's compute.
				win := -1
				var row isa.Addr
				for j := lv - 1; j >= a.level+1; j-- {
					wj := 2*j - 1
					if !disjointBases(occupied, wj, bases) {
						continue
					}
					if r, ok := lay.takePrivate(comp, wj); ok {
						win, row = wj, r
						break
					}
				}
				if win < 0 {
					if r, ok := lay.takePrivate(comp, 2*lv-2); ok {
						win, row = 2*lv-2, r
					}
				}
				if win < 0 {
					// No private row left: fall back to the shared
					// home (correct, just a merged lane).
					backing = append(backing, home)
					if a.level == 0 {
						needHome[a.id] = true
					}
					continue
				}
				req.Dst = row
				wins[win] = append(wins[win], req)
				for _, b := range bases {
					occupied = append(occupied, winBase{win, b})
				}
				privs = append(privs, privRow{k, row})
				freed = append(freed, row)
				backing = append(backing, row)
			}
			// The exec request claims its compute window: privatization
			// traffic for this level went to earlier windows only. A
			// paired div also writes its mod's value, to Rem.
			operands := backing[start:len(backing):len(backing)]
			in := isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}
			req := memory.Request{In: in, Operands: operands, Dst: n.home}
			occupied = append(occupied, winBase{w, e}, winBase{w, dbcBase(n.home)})
			if r := n.rem(); r != nil {
				backing = append(backing, r.home)
				req.Rem = &backing[len(backing)-1]
				occupied = append(occupied, winBase{w, dbcBase(r.home)})
			}
			wins[w] = append(wins[w], req)
			for _, oa := range operands {
				occupied = append(occupied, winBase{w, dbcBase(oa)})
			}
		}
		// The private rows this level's ops read become reusable from
		// its compute window on (same-window rewrites stay ordered: exec
		// precedes appended privatization, and both touch the
		// companion).
		for _, a := range freed {
			lay.availFrom[a] = w
			base := dbcBase(a)
			lay.free[base] = append([]int{a.Row}, lay.free[base]...)
		}
		freed = freed[:0]
	}

	// The generic staging the privatized schedule still needs lands at
	// the head of window 0, ahead of the privatization copies that may
	// read the staged homes.
	var w0 []memory.Request
	for _, n := range p.nodes {
		if !needHome[n.id] {
			continue
		}
		switch n.kind {
		case nConst:
			packed, err := packConst(n.val, n.bs, width)
			if err != nil {
				return nil, fmt.Errorf("pimc: constant %%%s: %w", n.name, err)
			}
			w0 = append(w0, memory.Request{Kind: memory.KindWrite, Dst: n.home, Row: packed})
		case nLoad:
			if n.home != n.addr {
				w0 = append(w0, memory.Request{Kind: memory.KindCopy, Src: n.addr, Dst: n.home})
			}
		}
	}
	wins[0] = append(w0, wins[0]...)

	var stores []memory.Request
	for _, n := range p.nodes {
		if n.kind == nStore && !n.direct {
			stores = append(stores, memory.Request{Kind: memory.KindCopy, Src: n.args[0].home, Dst: n.addr})
		}
	}

	pl := &Plan{Steps: make([]Step, 0, len(wins)+1)}
	for _, win := range wins {
		if len(win) > 0 {
			pl.Steps = append(pl.Steps, Step{Reqs: win})
		}
	}
	if len(stores) > 0 {
		pl.Steps = append(pl.Steps, Step{Reqs: stores})
	}
	return pl, nil
}

// winBase records that window win's requests lock the DBC base.
type winBase struct {
	win  int
	base isa.Addr
}

// disjointBases reports whether none of the bases is locked by a
// request of window win.
func disjointBases(occ []winBase, win int, bases []isa.Addr) bool {
	for _, o := range occ {
		if o.win == win && containsAddr(bases, o.base) {
			return false
		}
	}
	return true
}

// estimate prices op n's request as the heads now stand, without
// moving them.
func (lay *layout) estimate(n *node) int {
	c := lay.pr.Peek(n.home)
	if r := n.rem(); r != nil {
		c += lay.pr.Peek(r.home)
	}
	for _, a := range n.args {
		c += lay.pr.Peek(a.home)
	}
	return c + lay.pr.PeekKernel(isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm})
}

// levelSpan predicts the span of a level's compute window under the
// given privatization choices (priv, one per operand of ops in order):
// each exec request locks its DBC pair, its results' DBCs and the homes
// of the operands it reads in place, and costs its estimated cycles.
func (lay *layout) levelSpan(ops []*node, priv []bool, est []int) int {
	lay.lanes.Reset()
	i := 0
	for j, n := range ops {
		x := lay.pair(n.exec)
		lay.fp = append(lay.fp[:0], x.base, x.comp, n.home, remHome(n))
		for _, a := range n.args {
			if !priv[i] {
				lay.fp = append(lay.fp, a.home)
			}
			i++
		}
		lay.lanes.Add(lay.fp, est[j])
	}
	return lay.lanes.Span()
}

// copyCost predicts the cycles of privatizing operand i (counting the
// operands of ops in order) into its op's companion, every head at
// rest: a read of the home (none for a constant, which is written
// directly) and a write of the companion's next free row.
func (lay *layout) copyCost(ops []*node, i int) int {
	for _, n := range ops {
		if i >= len(n.args) {
			i -= len(n.args)
			continue
		}
		a := n.args[i]
		comp := lay.pair(n.exec).comp
		dst := comp
		if rows := lay.free[comp]; len(rows) > 0 {
			dst.Row = rows[0]
		}
		c := lay.pr.Peek(dst)
		if a.kind != nConst {
			c += lay.pr.Peek(a.home)
		}
		return c
	}
	return 0
}

// privKey names one private copy: a value copied for the ops of one
// executing DBC at one level.
type privKey struct {
	val  *node
	exec isa.Addr
	lv   int
}

type privRow struct {
	key privKey
	row isa.Addr
}

func findPriv(privs []privRow, k privKey) (isa.Addr, bool) {
	for _, p := range privs {
		if p.key == k {
			return p.row, true
		}
	}
	return isa.Addr{}, false
}

func containsAddr(list []isa.Addr, a isa.Addr) bool {
	for _, b := range list {
		if b == a {
			return true
		}
	}
	return false
}

// packConst broadcasts val into every bs-bit lane of a width-bit row.
func packConst(val uint64, bs, width int) (dbc.Row, error) {
	lanes := make([]uint64, width/bs)
	for l := range lanes {
		lanes[l] = val
	}
	return pim.PackLanes(lanes, bs, width)
}

// Run executes the plan against the memory. The memory's rows at the
// program's load addresses are the plan's inputs; after Run returns,
// every store address holds its program value. Each step is one
// ExecuteBatch call, planned on the memory's pooled scratch. Run only
// reads the plan, so one plan may run concurrently on several memories.
func (pl *Plan) Run(m *memory.Memory) error {
	for i, st := range pl.Steps {
		for r, res := range m.ExecuteBatch(st.Reqs) {
			if res.Err != nil {
				return fmt.Errorf("pimc: step %d: request %d (%v): %w", i, r, reqOp(st.Reqs[r]), res.Err)
			}
		}
	}
	return nil
}

// price predicts the plan's run from the pricer's heads and moves them
// as the run would, window by window in plan order: its windows, cpim
// requests, row-buffer copies, shift steps, cycles and makespan.
func (pl *Plan) price(pr *memory.Pricer) (PlanStats, error) {
	st := PlanStats{Batches: len(pl.Steps)}
	for _, step := range pl.Steps {
		c := pr.Window(step.Reqs)
		st.Requests += c.Execs
		st.CrossDBCMoves += c.RowCopies
		st.PortShifts += c.Shifts
		st.Cycles += c.Cycles
		st.Makespan += c.Makespan
	}
	return st, pr.Err()
}

// reqOp names a batch request for error messages.
func reqOp(r memory.Request) string {
	switch r.Kind {
	case memory.KindCopy:
		return "copy"
	case memory.KindWrite:
		return "write"
	case memory.KindRead:
		return "read"
	default:
		return r.In.Op.String()
	}
}

// String renders the schedule one window per line, each request
// indented below it, for -dump output.
func (pl *Plan) String() string {
	var b strings.Builder
	for i, st := range pl.Steps {
		fmt.Fprintf(&b, "%3d: batch %d requests\n", i, len(st.Reqs))
		for _, r := range st.Reqs {
			switch r.Kind {
			case memory.KindCopy:
				fmt.Fprintf(&b, "       copy %s -> %s\n", isa.FormatAddr(r.Src), isa.FormatAddr(r.Dst))
			case memory.KindWrite:
				fmt.Fprintf(&b, "       write -> %s\n", isa.FormatAddr(r.Dst))
			default:
				fmt.Fprintf(&b, "       %v @ %s -> %s", r.In.Op, isa.FormatAddr(r.In.Src), isa.FormatAddr(r.Dst))
				if r.Rem != nil {
					fmt.Fprintf(&b, " rem %s", isa.FormatAddr(*r.Rem))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}
