package compile

import (
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
)

// costModel predicts what a stream of memory requests costs on the
// device, request by request in run order, the way memory.Memory
// charges it: each access aligns its row under the nearest feasible
// port (Nanowire.NearestPort) from wherever the DBC's head was left and
// takes one port step; a cpim request reads its operands, runs its
// kernel on the executing DBC (priced from the kernel cost table) and
// writes its result. Like RacetrackEmulator's per-tape-group offset,
// every DBC's head offset is state, so the same access costs what the
// head's last position makes it cost.
type costModel struct {
	geo    params.Geometry
	trd    params.TRD
	pl, pr int
	heads  []dbcHead
	start  map[isa.Addr]int // head offsets of DBCs the run finds already moved
	err    error            // first kernel the table could not price
}

// dbcHead is one DBC's head offset and the shift steps predicted on it.
// key is the DBC's linear index, which lookups compare.
type dbcHead struct {
	key    int64
	base   isa.Addr
	off    int
	shifts int
}

// newCostModel returns a model with every head at rest, with room for
// the heads of the dozen or so DBCs a program touches.
func newCostModel(geo params.Geometry, trd params.TRD) costModel {
	pl, pr := params.PortPlacement(geo.RowsPerDBC, trd)
	return costModel{geo: geo, trd: trd, pl: pl, pr: pr, heads: make([]dbcHead, 0, 16)}
}

// head returns the DBC's head state, adding it at its starting offset on
// first touch. The pointer is valid until the next head call.
func (cm *costModel) head(base isa.Addr) *dbcHead {
	key := base.Linear(cm.geo)
	for i := range cm.heads {
		if cm.heads[i].key == key {
			return &cm.heads[i]
		}
	}
	cm.heads = append(cm.heads, dbcHead{key: key, base: base, off: cm.start[base]})
	return &cm.heads[len(cm.heads)-1]
}

// alignSteps is the shift distance that brings row under its nearest
// feasible port from head offset off, and the offset it leaves.
func (cm *costModel) alignSteps(row, off int) (steps, to int) {
	dl, dr := cm.pl-row-off, cm.pr-row-off
	d := dr
	if trd := int(cm.trd); row <= cm.geo.RowsPerDBC-trd && (row < trd-1 || abs(dl) <= abs(dr)) {
		d = dl
	}
	return abs(d), off + d
}

// access prices one port read or write of the row: the align shifts
// plus the port step. It moves the DBC's head.
func (cm *costModel) access(a isa.Addr) int {
	h := cm.head(dbcBase(a))
	steps, to := cm.alignSteps(a.Row, h.off)
	h.off = to
	h.shifts += steps
	return steps + 1
}

// offset returns the DBC's head offset without touching it.
func (cm *costModel) offset(base isa.Addr) int {
	key := base.Linear(cm.geo)
	for i := range cm.heads {
		if cm.heads[i].key == key {
			return cm.heads[i].off
		}
	}
	return cm.start[base]
}

// peek is access without moving the head.
func (cm *costModel) peek(a isa.Addr) int {
	steps, _ := cm.alignSteps(a.Row, cm.offset(dbcBase(a)))
	return steps + 1
}

// kernel returns the measured cost of the instruction's kernel. A
// kernel the table cannot measure prices as free and is remembered in
// cm.err; placement never emits one (the kernel would fail at run time
// too).
func (cm *costModel) kernel(in isa.Instruction) kernelCost {
	kc, err := costOf(kernelKey{op: in.Op, bs: in.Blocksize, k: in.Operands, imm: in.Imm, trd: cm.trd})
	if err != nil && cm.err == nil {
		cm.err = err
	}
	return kc
}

// kernelAt prices running the instruction's kernel on the executing DBC
// as its head now stands, without moving the head.
func (cm *costModel) kernelAt(in isa.Instruction) int {
	_, cycles, _ := cm.kernel(in).run(cm.offset(dbcBase(in.Src)))
	return cycles
}

// estimate prices op n's request as the heads now stand, without
// moving them.
func (cm *costModel) estimate(n *node) int {
	c := cm.peek(n.home)
	if r := n.rem(); r != nil {
		c += cm.peek(r.home)
	}
	for _, a := range n.args {
		c += cm.peek(a.home)
	}
	return c + cm.kernelAt(isa.Instruction{Op: n.op, Src: n.exec, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm})
}

// exec prices one cpim request: operand reads in order, the kernel on
// the executing DBC from its current head, then the result write and,
// for a paired div (rem not nil), the remainder write.
func (cm *costModel) exec(in isa.Instruction, operands []isa.Addr, dst isa.Addr, rem *isa.Addr) int {
	c := 0
	for _, a := range operands {
		c += cm.access(a)
	}
	kc := cm.kernel(in)
	h := cm.head(dbcBase(in.Src))
	shifts, cycles, exit := kc.run(h.off)
	h.off = exit
	h.shifts += shifts
	c += cycles + cm.access(dst)
	if rem != nil {
		c += cm.access(*rem)
	}
	return c
}

// request prices one batch request and reports how many row-buffer
// copies it makes (the memory's RowCopies: a copy request, or an
// operand staged from another DBC into the executing one).
func (cm *costModel) request(r *memory.Request) (cycles, copies int) {
	switch r.Kind {
	case memory.KindCopy:
		return cm.access(r.Src) + cm.access(r.Dst), 1
	case memory.KindWrite:
		return cm.access(r.Dst), 0
	case memory.KindRead:
		return cm.access(r.Src), 0
	}
	for _, a := range r.Operands {
		if dbcBase(a) != dbcBase(r.In.Src) {
			copies++
		}
	}
	return cm.exec(r.In, r.Operands, r.Dst, r.Rem), copies
}

// lanes folds one batch window's requests into ExecuteBatch's lanes:
// requests whose footprints share a DBC form one lane and run back to
// back, disjoint lanes run concurrently, and the window costs its
// longest lane. DBCs are keyed by linear index. The slices are scratch,
// reused window after window; fp holds the footprint of the request
// being added or peeked.
type lanes struct {
	geo    params.Geometry
	parent []int   // union-find over the window's requests
	cycles []int   // lane cycles, valid at a root
	bases  []int64 // distinct DBCs the window touched
	owner  []int   // a request that touched each of them
	fp     []int64
}

// newLanes returns lanes with room for windows of up to n requests,
// carved from two allocations.
func newLanes(geo params.Geometry, n int) lanes {
	ints := make([]int, 3*n)
	keys := make([]int64, 2*n+16)
	return lanes{
		geo:    geo,
		parent: ints[0:0:n],
		cycles: ints[n : n : 2*n],
		owner:  ints[2*n : 2*n : 3*n],
		bases:  keys[0 : 0 : 2*n+8],
		fp:     keys[2*n+8 : 2*n+8],
	}
}

func (ls *lanes) reset() {
	ls.parent, ls.cycles = ls.parent[:0], ls.cycles[:0]
	ls.bases, ls.owner = ls.bases[:0], ls.owner[:0]
}

// use adds the DBC holding a to the footprint.
func (ls *lanes) use(a isa.Addr) {
	ls.fp = append(ls.fp, dbcBase(a).Linear(ls.geo))
}

// footprint sets fp to the DBCs a request locks — the set ExecuteBatch
// groups its requests by.
func (ls *lanes) footprint(r *memory.Request) {
	ls.fp = ls.fp[:0]
	switch r.Kind {
	case memory.KindCopy:
		ls.use(r.Src)
		ls.use(r.Dst)
	case memory.KindWrite:
		ls.use(r.Dst)
	case memory.KindRead:
		ls.use(r.Src)
	default:
		ls.use(r.In.Src)
		ls.use(r.Dst)
		if r.Rem != nil {
			ls.use(*r.Rem)
		}
		for _, a := range r.Operands {
			ls.use(a)
		}
	}
}

func (ls *lanes) root(i int) int {
	for ls.parent[i] != i {
		ls.parent[i] = ls.parent[ls.parent[i]]
		i = ls.parent[i]
	}
	return i
}

// add joins a request of footprint fp and the given cycles to the
// window.
func (ls *lanes) add(cycles int) {
	i := len(ls.parent)
	ls.parent = append(ls.parent, i)
	ls.cycles = append(ls.cycles, cycles)
	for _, b := range ls.fp {
		j := -1
		for k, seen := range ls.bases {
			if seen == b {
				j = k
				break
			}
		}
		if j < 0 {
			ls.bases = append(ls.bases, b)
			ls.owner = append(ls.owner, i)
			continue
		}
		ra, rb := ls.root(ls.owner[j]), ls.root(i)
		if ra != rb {
			ls.parent[rb] = ra
			ls.cycles[ra] += ls.cycles[rb]
		}
	}
}

// peek returns the length of the lane a request of footprint fp and the
// given cycles would land in, without adding it.
func (ls *lanes) peek(cycles int) int {
	var buf [8]int
	roots := buf[:0]
	for _, b := range ls.fp {
		for k, seen := range ls.bases {
			if seen != b {
				continue
			}
			r := ls.root(ls.owner[k])
			fresh := true
			for _, x := range roots {
				fresh = fresh && x != r
			}
			if fresh {
				roots = append(roots, r)
				cycles += ls.cycles[r]
			}
			break
		}
	}
	return cycles
}

// span is the window's cost: its longest lane.
func (ls *lanes) span() int {
	longest := 0
	for i, p := range ls.parent {
		if p == i {
			longest = max(longest, ls.cycles[i])
		}
	}
	return longest
}

// price predicts the plan's run on a memory whose DBC heads start at
// the given offsets (nil: every head at rest, as on a fresh memory):
// its windows, cpim requests, row-buffer copies, shift steps, cycles
// and makespan, plus the shift steps per DBC. Steps run in plan order,
// each one window of lanes.
func (pl *Plan) price(geo params.Geometry, trd params.TRD, start map[isa.Addr]int) (PlanStats, []dbcHead, error) {
	cm := newCostModel(geo, trd)
	cm.start = start
	st := PlanStats{Batches: len(pl.Steps)}
	widest := 0
	for i := range pl.Steps {
		widest = max(widest, len(pl.Steps[i].Reqs))
	}
	ls := newLanes(geo, widest)
	for i := range pl.Steps {
		ls.reset()
		for j := range pl.Steps[i].Reqs {
			r := &pl.Steps[i].Reqs[j]
			if r.Kind == memory.KindExec {
				st.Requests++
			}
			c, copies := cm.request(r)
			st.CrossDBCMoves += copies
			st.Cycles += c
			ls.footprint(r)
			ls.add(c)
		}
		st.Makespan += ls.span()
	}
	for _, h := range cm.heads {
		st.PortShifts += h.shifts
	}
	return st, cm.heads, cm.err
}
