package compile

import (
	"fmt"
	"strings"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/pim"
)

// StepKind discriminates the operations of a compiled plan.
type StepKind int

const (
	StepWrite StepKind = iota // materialize a lane-broadcast constant
	StepCopy                  // row-buffer transfer between two rows
	StepBatch                 // one DAG level as an ExecuteBatch group
	StepExec                  // one serial cpim operation (naive plan)
)

// Step is one schedulable unit of a plan.
type Step struct {
	Kind StepKind

	// StepWrite: broadcast Val into every Bs-bit lane of the row at Addr.
	Addr isa.Addr
	Val  uint64
	Bs   int

	// StepCopy: CopyRow Src -> Dst.
	Src, Dst isa.Addr

	// StepBatch: independent requests of one DAG level.
	Reqs []memory.Request

	// StepExec: one serial instruction.
	In       isa.Instruction
	Operands []isa.Addr
	DstA     isa.Addr
}

// Plan is an executable schedule over a Memory: constants and staging
// copies first, then the DAG levels (batched under -O1, serial program
// order naive), then the store copies placement could not fold away.
// The pipelined schedule (-O2) folds the staging and store traffic
// into the batch windows themselves, so it overlaps with compute.
type Plan struct {
	Steps     []Step
	Stats     PlanStats
	Opt       bool // placement-aware (-O1+) vs naive hand-placed layout
	Pipelined bool // -O2: staging and stores scheduled into batch windows
}

// buildPlan schedules the placed program.
func buildPlan(p *Program, lay *layout) (*Plan, error) {
	if lay.pipeline {
		return buildPipelined(p, lay)
	}
	pl := &Plan{Stats: lay.stats, Opt: lay.opt}
	for _, n := range p.nodes {
		switch n.kind {
		case nConst:
			pl.Steps = append(pl.Steps, Step{Kind: StepWrite, Addr: n.home, Val: n.val, Bs: n.bs})
		case nLoad:
			if n.home != n.addr {
				pl.Steps = append(pl.Steps, Step{Kind: StepCopy, Src: n.addr, Dst: n.home})
			}
		}
	}
	levels := p.levelize()
	for lv := 1; lv <= levels; lv++ {
		var reqs []memory.Request
		for _, n := range p.nodes {
			if n.kind != nOp || n.level != lv {
				continue
			}
			in := isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}
			operands := make([]isa.Addr, len(n.args))
			for i, a := range n.args {
				operands[i] = a.home
			}
			if lay.opt {
				reqs = append(reqs, memory.Request{In: in, Operands: operands, Dst: n.home})
			} else {
				pl.Steps = append(pl.Steps, Step{Kind: StepExec, In: in, Operands: operands, DstA: n.home})
			}
		}
		if len(reqs) > 0 {
			pl.Steps = append(pl.Steps, Step{Kind: StepBatch, Reqs: reqs})
		}
	}
	for _, n := range p.nodes {
		if n.kind == nStore && !n.direct {
			pl.Steps = append(pl.Steps, Step{Kind: StepCopy, Src: n.args[0].home, Dst: n.addr})
		}
	}
	return pl, nil
}

// buildPipelined schedules the placed program as overlapped batch
// windows (-O2). Three schedule transformations drive the makespan
// down without changing results:
//
//   - Operand privatization: every operand homed outside its op's
//     executing DBC is copied (constants: lane-broadcast written) into
//     a free row of that DBC before the op's window. The op's
//     footprint collapses to its own DBC, so same-level ops become
//     disjoint parallel lanes instead of one group serialized through
//     a shared operand DBC.
//   - Overlap hoisting: each privatization request is hoisted into the
//     latest earlier compute window whose DBC footprint is disjoint
//     from it — level N+1 staging runs in the same ExecuteBatch window
//     as level N compute. Requests no compute window can absorb drain
//     in a short transfer window right before their level (moving a
//     value in the window that computes or consumes it would re-merge
//     the producer's and consumer's lanes, re-serializing the window).
//   - Staging and store folding: window 0 batches the level-0 staging
//     the privatized schedule still needs, and the trailing store
//     copies drain as one final batch window, instead of serial steps.
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

	stored := make(map[isa.Addr]bool)
	for _, n := range p.nodes {
		if n.kind == nStore {
			stored[n.addr] = true
		}
	}
	byLevel := make([][]*node, levels+1)
	for _, n := range p.nodes {
		if n.kind == nOp {
			byLevel[n.level] = append(byLevel[n.level], n)
		}
	}
	// Level-0 values read through their shared home (store operands,
	// privatization fallbacks, loads whose user row a store clobbers)
	// still need the generic window-0 staging.
	needHome := make(map[*node]bool)
	for _, n := range p.nodes {
		if n.kind == nStore && !n.direct && n.args[0].level == 0 {
			needHome[n.args[0]] = true
		}
	}

	// Window numbering: window 0 stages level 1's operands; level L
	// computes in window 2L-1; transfer window 2L-2 (L >= 2) drains the
	// privatization traffic for level L that no earlier compute window
	// could absorb. The store drain is appended after everything.
	wins := make([][]memory.Request, max(1, 2*levels))
	occupied := make([]map[isa.Addr]bool, len(wins))

	type privKey struct {
		val  *node
		exec isa.Addr
		lv   int
	}
	privAddr := make(map[privKey]isa.Addr)
	operandAt := make(map[*node][]isa.Addr) // op -> final operand addresses
	stats := lay.stats

	var freed []isa.Addr
	for lv := 1; lv <= levels; lv++ {
		// Privatization is conflict-driven: an operand moves into its
		// op's DBC only when two or more of the level's requests touch
		// the operand's home DBC — that sharing is what merges lanes.
		// Unshared operands read their home in place, copy-free; one
		// reader of a purely-operand DBC keeps the shared read too
		// (after the others privatize away, no conflict remains).
		touch := make(map[isa.Addr]int)
		fixed := make(map[isa.Addr]bool)
		keeper := make(map[isa.Addr]*node)
		for _, n := range byLevel[lv] {
			e := dbcBase(n.exec)
			seen := map[isa.Addr]bool{e: true, dbcBase(n.home): true}
			fixed[e], fixed[dbcBase(n.home)] = true, true
			for _, a := range n.args {
				seen[dbcBase(a.home)] = true
			}
			for b := range seen {
				touch[b]++
			}
		}
		for _, n := range byLevel[lv] {
			e := dbcBase(n.exec)
			addrs := make([]isa.Addr, len(n.args))
			for i, a := range n.args {
				home := a.home
				x := dbcBase(home)
				if x == e {
					addrs[i] = home
					continue
				}
				if touch[x] < 2 || (!fixed[x] && (keeper[x] == nil || keeper[x] == n)) {
					keeper[x] = n
					addrs[i] = home
					if a.level == 0 {
						needHome[a] = true
					}
					continue
				}
				k := privKey{val: a, exec: e, lv: lv}
				if pa, ok := privAddr[k]; ok {
					addrs[i] = pa
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
				case a.kind == nLoad && !stored[a.addr]:
					// Loads privatize straight from the user row,
					// skipping the staged intermediate.
					req.Src = a.addr
				default:
					// Op results — and loads whose user row a store
					// clobbers — copy from the value's home.
					if a.level == 0 {
						needHome[a] = true
					}
					req.Src = a.home
				}
				bases := make([]isa.Addr, 1, 2)
				bases[0] = e
				if req.Kind == memory.KindCopy && dbcBase(req.Src) != e {
					bases = append(bases, dbcBase(req.Src))
				}
				// Hoist into the latest earlier compute window whose
				// footprint is disjoint (never earlier than the window
				// producing the source); else take the transfer window
				// right before this level's compute.
				win := -1
				var row isa.Addr
				for j := lv - 1; j >= a.level+1; j-- {
					w := 2*j - 1
					if !disjointBases(occupied[w], bases) {
						continue
					}
					if r, ok := lay.takePrivate(e, w); ok {
						win, row = w, r
						break
					}
				}
				if win < 0 {
					w := 2*lv - 2
					if r, ok := lay.takePrivate(e, w); ok {
						win, row = w, r
					}
				}
				if win < 0 {
					// No private row left: fall back to the shared
					// home (correct, just a merged lane).
					addrs[i] = home
					if a.level == 0 {
						needHome[a] = true
					}
					continue
				}
				req.Dst = row
				wins[win] = append(wins[win], req)
				if occupied[win] == nil {
					occupied[win] = make(map[isa.Addr]bool)
				}
				for _, b := range bases {
					occupied[win][b] = true
				}
				stats.CrossDBCMoves++
				if req.Kind == memory.KindCopy {
					stats.PortShifts += lay.access(req.Src)
				}
				stats.PortShifts += lay.access(row)
				privAddr[k] = row
				freed = append(freed, row)
				addrs[i] = row
			}
			operandAt[n] = addrs
		}
		// This level's exec requests claim their compute window; the
		// private rows its ops read become reusable from that window on
		// (same-window rewrites stay ordered: exec precedes appended
		// privatization, and both touch the executing DBC).
		w := 2*lv - 1
		occ := make(map[isa.Addr]bool)
		for _, n := range byLevel[lv] {
			in := isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}
			wins[w] = append(wins[w], memory.Request{In: in, Operands: operandAt[n], Dst: n.home})
			occ[dbcBase(n.exec)] = true
			occ[dbcBase(n.home)] = true
			for _, oa := range operandAt[n] {
				occ[dbcBase(oa)] = true
			}
		}
		occupied[w] = occ
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
		if !needHome[n] {
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

	pl := &Plan{Stats: stats, Opt: true, Pipelined: true}
	for _, win := range wins {
		if len(win) > 0 {
			pl.Steps = append(pl.Steps, Step{Kind: StepBatch, Reqs: win})
		}
	}
	if len(stores) > 0 {
		pl.Steps = append(pl.Steps, Step{Kind: StepBatch, Reqs: stores})
	}
	pl.Stats.Batches = len(pl.Steps)
	return pl, nil
}

// disjointBases reports whether none of the bases appear in the
// window's occupied-DBC set.
func disjointBases(occ map[isa.Addr]bool, bases []isa.Addr) bool {
	for _, b := range bases {
		if occ[b] {
			return false
		}
	}
	return true
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
// every store address holds its program value. Each batch step is one
// ExecuteBatch call, planned on the memory's pooled scratch. Run only
// reads the plan, so one plan may run concurrently on several memories.
func (pl *Plan) Run(m *memory.Memory) error {
	width := m.Config().Geometry.TrackWidth
	for i, st := range pl.Steps {
		var err error
		switch st.Kind {
		case StepWrite:
			var row dbc.Row
			if row, err = packConst(st.Val, st.Bs, width); err == nil {
				err = m.WriteRow(st.Addr, row)
			}
		case StepCopy:
			err = m.CopyRow(st.Src, st.Dst)
		case StepBatch:
			for r, res := range m.ExecuteBatch(st.Reqs) {
				if res.Err != nil {
					err = fmt.Errorf("request %d (%v): %w", r, reqOp(st.Reqs[r]), res.Err)
					break
				}
			}
		case StepExec:
			_, err = m.Execute(st.In, st.Operands, st.DstA)
		}
		if err != nil {
			return fmt.Errorf("pimc: step %d: %w", i, err)
		}
	}
	return nil
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

// String renders the schedule one step per line for -dump output.
func (pl *Plan) String() string {
	var b strings.Builder
	for i, st := range pl.Steps {
		switch st.Kind {
		case StepWrite:
			fmt.Fprintf(&b, "%3d: write %s <- %d bs=%d\n", i, isa.FormatAddr(st.Addr), st.Val, st.Bs)
		case StepCopy:
			fmt.Fprintf(&b, "%3d: copy  %s -> %s\n", i, isa.FormatAddr(st.Src), isa.FormatAddr(st.Dst))
		case StepBatch:
			fmt.Fprintf(&b, "%3d: batch %d requests\n", i, len(st.Reqs))
			for _, r := range st.Reqs {
				switch r.Kind {
				case memory.KindCopy:
					fmt.Fprintf(&b, "       copy %s -> %s\n", isa.FormatAddr(r.Src), isa.FormatAddr(r.Dst))
				case memory.KindWrite:
					fmt.Fprintf(&b, "       write -> %s\n", isa.FormatAddr(r.Dst))
				default:
					fmt.Fprintf(&b, "       %v @ %s -> %s\n", r.In.Op, isa.FormatAddr(r.In.Src), isa.FormatAddr(r.Dst))
				}
			}
		case StepExec:
			fmt.Fprintf(&b, "%3d: exec  %v @ %s -> %s\n", i, st.In.Op, isa.FormatAddr(st.In.Src), isa.FormatAddr(st.DstA))
		}
	}
	return b.String()
}
