package compile

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
)

// PlanStats is memory.Pricer's prediction for one plan, its windows
// priced in run order on a memory whose heads start at rest: row-buffer
// copies, every shift step (port alignment and kernel shifts alike),
// device cycles and the makespan of the batch windows. The bench
// harness compares these predictions against the memory's measured
// MoveStats, trace counters and recorder.
type PlanStats struct {
	CrossDBCMoves int // row-buffer copies: copy requests plus operands staged from another DBC
	PortShifts    int // shift steps: port alignment and kernel shifts
	Cycles        int // device control steps, the serial sum
	Makespan      int // critical path: each batch window costs its longest lane
	Batches       int // ExecuteBatch windows issued, one per plan step
	Requests      int // cpim operations issued
	RowsRecycled  int // home rows returned to the allocators by liveness
}

// layout is the placement result: every value has a home row, every op
// an executing PIM DBC, all in one bank so the §III-A staging rule
// holds with the fewest row-buffer crossings.
type layout struct {
	opt      bool
	pipeline bool // -O2: staging spread for overlapped batch windows
	recycle  bool
	geo      params.Geometry
	execBank int
	pool     []execDBC // executing PIM DBCs, assignment order
	// free maps each companion base to its unused rows, port-sorted.
	// The lists start out sharing one array, so updates re-slice or
	// build a new slice and never write in place.
	free     map[isa.Addr][]int
	reserved map[isa.Addr]bool // DBC bases the program names or companions claim; off-limits to the staging allocator

	stageOrder []int      // row hand-out order of every staging DBC
	stageRows  []isa.Addr // allocated-but-unused rows of the current staging DBCs
	stageSeq   int        // enumeration cursor over candidate staging DBCs

	// availFrom is the earliest schedule-window index (see buildPipelined's
	// window numbering) from which a recycled free row may be rewritten:
	// its previous owner's last reader has run by then. Rows never handed
	// out have no entry (available from window 0).
	availFrom map[isa.Addr]int

	// pr tracks the heads in placement order, so choices read the cost
	// of an access or a kernel as the head would then stand. Placement
	// leaves every head at rest again for the schedule and the price.
	pr *memory.Pricer
	// lanes prices the lanes of a window placement or scheduling is
	// still building; fp holds the footprint being added or peeked.
	lanes memory.Lanes
	fp    []isa.Addr

	recycled int // home rows returned to the allocators by liveness
}

// execDBC is one executing PIM DBC and its companion: a staging DBC of
// the same bank, preferably the same subarray, whose near-port rows
// home the results (and -O2 private operand copies) of the ops it
// executes. The exec DBC's own rows then hold only its kernel window,
// so no result trip drags its head away from rest.
//
// When the bank has no staging DBC to spare, comp is base itself: it
// owns no free rows, so results and private copies fall back to the
// staging allocator and to shared reads.
type execDBC struct {
	base isa.Addr
	comp isa.Addr
}

// holds reports whether the row at a lies in the pair: in the exec DBC
// or its companion, where the exec DBC's ops read it without sharing a
// footprint with anyone else.
func (x execDBC) holds(a isa.Addr) bool {
	b := dbcBase(a)
	return b == x.base || b == x.comp
}

// pair returns the pool entry of the executing DBC e.
func (lay *layout) pair(e isa.Addr) execDBC {
	for _, x := range lay.pool {
		if x.base == e {
			return x
		}
	}
	return execDBC{base: e, comp: e}
}

// rowOwner remembers which allocator a recyclable home row came from,
// so liveness can hand it back to the right pool.
type rowOwner struct {
	base   isa.Addr
	staged bool
}

func dbcBase(a isa.Addr) isa.Addr {
	a.Row = 0
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// portDist is the shift distance that aligns a row under its nearest
// feasible access port from rest.
func portDist(row, rows int, trd params.TRD) int {
	_, d := device.NearestPortAt(rows, trd, row, 0)
	return abs(d)
}

// portOrder returns the given rows sorted by access-port distance
// (nearest first, ties by lower index).
func portOrder(rows []int, total int, trd params.TRD) []int {
	out := append([]int(nil), rows...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			di, dj := portDist(out[j], total, trd), portDist(out[j-1], total, trd)
			if di < dj || (di == dj && out[j] < out[j-1]) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// sideOrder orders rows nearest-port-first but grouped by which port is
// nearest: all left-port rows, then all right-port rows. Shift cost is
// relative to the head's current offset, so a strict distance sort that
// alternates between the two ends of the track pays a near-full-track
// shift on every consecutive allocation; grouping by side keeps
// consecutively handed-out rows physically close.
func sideOrder(rows []int, total int, trd params.TRD) []int {
	var lefts, rights []int
	for _, row := range rows {
		if side, _ := device.NearestPortAt(total, trd, row, 0); side == device.Left {
			lefts = append(lefts, row)
		} else {
			rights = append(rights, row)
		}
	}
	return append(portOrder(lefts, total, trd), portOrder(rights, total, trd)...)
}

// execDBCs is how many PIM-enabled DBCs the optimizing layout spreads
// each DAG level across, clamped to the geometry.
const execDBCs = 4

// place assigns every value a home row and every op an executing DBC.
//
// The optimizing layout (level >= 1) keeps same-bank loads in place,
// pairs each executing PIM DBC with a companion staging DBC and homes
// results in the companion's rows nearest the access ports, folds
// first stores into request destinations, and spreads each DAG level
// over execDBCs PIM DBCs, choosing each op's DBC by the pricer's
// predicted lane length and cycles. At level >= 2 the staging allocator
// additionally round-robins its rows across several staging DBCs, so
// the pipelined schedule's staging lanes land on disjoint footprints
// and run concurrently inside a batch window. The naive layout (level
// 0) models hand-placed execution: one PIM DBC, every input copied to
// sequential staging rows (far from the ports), every store an explicit
// copy — the baseline the differential harness and the bench compare
// against.
// recycle false turns off liveness-driven row recycling at level >= 1:
// the ablation the recycling tests compare against.
func (p *Program) place(cfg params.Config, level int, recycle bool) (*layout, error) {
	g := cfg.Geometry
	opt := level >= 1
	lay := &layout{
		opt:       opt,
		pipeline:  level >= 2,
		recycle:   opt && recycle,
		geo:       g,
		free:      make(map[isa.Addr][]int),
		reserved:  make(map[isa.Addr]bool),
		availFrom: make(map[isa.Addr]int),
		pr:        memory.NewPricer(cfg),
		lanes:     memory.NewLanes(len(p.nodes)),
		fp:        make([]isa.Addr, 0, 16),
	}

	// The program's own rows (and their whole DBCs) are off-limits to
	// the allocators, so a home can never alias a load or store address,
	// even a load whose every use folded away. The rows the plan
	// touches vote for the exec bank.
	bankVotes := make(map[int]int)
	for _, in := range p.inputs {
		lay.reserved[dbcBase(in.Addr)] = true
	}
	for _, n := range p.nodes {
		if n.kind == nLoad || n.kind == nStore {
			lay.reserved[dbcBase(n.addr)] = true
			bankVotes[n.addr.Bank]++
		}
	}
	lay.execBank = 0
	bestVotes := -1
	for b := 0; b < g.Banks; b++ {
		if v := bankVotes[b]; v > bestVotes {
			lay.execBank, bestVotes = b, v
		}
	}

	nExec := 1
	if opt {
		nExec = min(execDBCs, g.SubarraysPerBank*g.PIMTilesPerSub*g.PIMDBCsPerTile)
	}
	for sub := 0; sub < g.SubarraysPerBank && len(lay.pool) < nExec; sub++ {
		for tile := 0; tile < g.PIMTilesPerSub && len(lay.pool) < nExec; tile++ {
			for d := g.DBCsPerTile - g.PIMDBCsPerTile; d < g.DBCsPerTile && len(lay.pool) < nExec; d++ {
				base := isa.Addr{Bank: lay.execBank, Subarray: sub, Tile: tile, DBC: d}
				if lay.reserved[base] {
					continue
				}
				lay.pool = append(lay.pool, execDBC{base: base})
			}
		}
	}
	if len(lay.pool) == 0 {
		return nil, fmt.Errorf("pimc: no free PIM-enabled DBC in bank %d", lay.execBank)
	}
	// Staging DBCs hand out every row: nearest port first when
	// optimizing, sequentially from row 0 in the naive layout.
	lay.stageOrder = make([]int, g.RowsPerDBC)
	for r := range lay.stageOrder {
		lay.stageOrder[r] = r
	}
	if opt {
		lay.stageOrder = sideOrder(lay.stageOrder, g.RowsPerDBC, cfg.TRD)
		for i := range lay.pool {
			x := &lay.pool[i]
			x.comp = x.base
			if comp, ok := lay.pickCompanion(x.base.Subarray); ok {
				x.comp = comp
				lay.reserved[comp] = true
				lay.free[comp] = lay.stageOrder
			}
		}
	}

	// Pass 1: level-0 values (loads, constants).
	owned := make(map[*node]rowOwner)
	for _, n := range p.nodes {
		switch n.kind {
		case nLoad:
			if opt && n.addr.Bank == lay.execBank {
				n.home = n.addr // read in place: no staging copy at all
				continue
			}
			home, err := lay.stageRow()
			if err != nil {
				return nil, err
			}
			n.home = home
			owned[n] = rowOwner{base: dbcBase(home), staged: true}
			lay.pr.Access(n.addr)
			lay.pr.Access(home)
		case nConst:
			home, err := lay.stageRow()
			if err != nil {
				return nil, err
			}
			n.home = home
			owned[n] = rowOwner{base: dbcBase(home), staged: true}
			lay.pr.Access(home)
		}
	}

	// First same-bank store of each op can become the request Dst.
	directFor := make(map[*node]*node)
	if opt {
		for _, n := range p.nodes {
			if n.kind != nStore {
				continue
			}
			prod := n.args[0]
			if prod.kind == nOp && n.addr.Bank == lay.execBank && directFor[prod] == nil {
				directFor[prod] = n
			}
		}
	}

	// Pass 2: op levels, cheapest executing DBC first.
	levels := p.levelize()

	// lastUse marks the DAG level after which a value's home row is
	// dead. Store operands stay live to the end (the trailing copy pass
	// still reads their rows); everything else dies at its deepest
	// consuming level. ExecuteBatch levels are sequential plan steps, so
	// a row whose value was last read at level L is safely rewritable
	// from level L+1 on.
	lastUse := make(map[*node]int)
	if lay.recycle {
		for _, n := range p.nodes {
			switch n.kind {
			case nOp:
				for _, a := range n.args {
					lastUse[a] = max(lastUse[a], n.level)
				}
			case nStore:
				lastUse[n.args[0]] = 1 << 30
			}
		}
	}

	operands := make([]isa.Addr, 0, 8)
	for lv := 1; lv <= levels; lv++ {
		// Recycle the home rows of values consumed for the last time by
		// the previous level: hand each row back to the allocator it
		// came from, front of the queue, so the next allocation lands
		// on a row the head just visited.
		for _, d := range p.nodes {
			own, ok := owned[d]
			if !lay.recycle || !ok || lastUse[d] != lv-1 {
				continue
			}
			delete(owned, d)
			lay.recycled++
			if own.staged {
				a := own.base
				a.Row = d.home.Row
				lay.stageRows = append([]isa.Addr{a}, lay.stageRows...)
			} else {
				lay.free[own.base] = append([]int{d.home.Row}, lay.free[own.base]...)
				// The dead value's last reader ran in the previous
				// level's compute window (index 2(lv-1)-1 in the -O2
				// window numbering); the row is rewritable from there.
				a := own.base
				a.Row = d.home.Row
				lay.availFrom[a] = max(0, 2*lv-3)
			}
		}

		lay.lanes.Reset()
		for _, n := range p.nodes {
			if n.kind != nOp || n.level != lv || n.isRem() {
				continue
			}
			x, cycles, private := lay.chooseExec(n, directFor)
			n.exec = x.base
			if err := lay.homeResult(n, x, directFor[n], owned); err != nil {
				return nil, err
			}
			// A paired div's request also writes its mod's value.
			var rem *isa.Addr
			if r := n.rem(); r != nil {
				r.exec = x.base
				if err := lay.homeResult(r, x, directFor[r], owned); err != nil {
					return nil, err
				}
				rem = &r.home
			}
			operands = operands[:0]
			for _, a := range n.args {
				operands = append(operands, a.home)
			}
			lay.pr.Exec(isa.Instruction{Op: n.op, Src: x.base, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}, operands, n.home, rem)
			lay.lanes.Add(lay.opFootprint(n, x, private, n.home, remHome(n)), cycles)
		}
	}
	// The plan runs from rest: scheduling peeks the heads there, and
	// Compile prices the plan from there.
	lay.pr.Reset()
	return lay, nil
}

// homeResult homes the value op n computes on x: at its store when
// direct is not nil, else in the companion's next free row, else (or
// in the naive layout) in a staging row. owned records the row's
// allocator for recycling.
func (lay *layout) homeResult(n *node, x execDBC, direct *node, owned map[*node]rowOwner) error {
	if direct != nil {
		n.home, direct.direct = direct.addr, true
		return nil
	}
	if lay.opt {
		// Results live in the companion's rows, nearest port first; the
		// naive layout parks everything in far staging rows instead.
		if home, ok := lay.takeFree(x.comp); ok {
			n.home = home
			owned[n] = rowOwner{base: x.comp}
			return nil
		}
	}
	home, err := lay.stageRow()
	if err != nil {
		return err
	}
	n.home = home
	owned[n] = rowOwner{base: dbcBase(home), staged: true}
	return nil
}

// remHome is the home of the remainder op n's request writes, or n's
// own home when it writes none (a footprint may name a DBC twice).
func remHome(n *node) isa.Addr {
	if r := n.rem(); r != nil {
		return r.home
	}
	return n.home
}

// opFootprint returns the footprint op n locks in its batch window
// when it executes on x with its results at quo and rem: x, its
// companion and the result rows, plus every operand outside the pair
// unless private, when the -O2 scheduler copies those operands into
// the companion first. It is built in lay.fp.
func (lay *layout) opFootprint(n *node, x execDBC, private bool, quo, rem isa.Addr) []isa.Addr {
	lay.fp = append(lay.fp[:0], x.base, x.comp, quo, rem)
	for _, a := range n.args {
		if !private || x.holds(a.home) {
			lay.fp = append(lay.fp, a.home)
		}
	}
	return lay.fp
}

// chooseExec picks the executing DBC for op n, whose results fold into
// their stores in directFor. The pick is the DBC whose lane in the
// level's window would end first with the op on it; the op's predicted
// cycles there are its operand reads, its kernel from that DBC's head
// and the writes of its results (a paired div's two) into the
// companion's next free rows. Reading an operand homed outside the
// pair merges the op's lane with every request of the window touching
// that DBC; at -O2 the op may instead privatize those operands, one
// copy each into the companion, when that ends its lane sooner.
// chooseExec returns the DBC, the op's predicted cycles and whether it
// counted on privatizing. Ties go to the earlier DBC of the pool.
func (lay *layout) chooseExec(n *node, directFor map[*node]*node) (execDBC, int, bool) {
	reads := 0
	for _, a := range n.args {
		reads += lay.pr.Peek(a.home)
	}
	in := isa.Instruction{Op: n.op, Blocksize: n.bs, Operands: len(n.args), Imm: n.imm}
	r := n.rem()
	best, bestEnd, bestCycles, bestPrivate := 0, 1<<30, 0, false
	for i, x := range lay.pool {
		// Each result not folded into its store takes the companion's
		// next free row, the quotient first.
		rows := lay.free[x.comp]
		next := x.comp
		if len(rows) > 0 {
			next.Row = rows[0]
		}
		home := func(v *node) isa.Addr {
			if d := directFor[v]; d != nil {
				return d.addr
			}
			a := x.comp
			if len(rows) > 0 {
				a.Row, rows = rows[0], rows[1:]
			}
			return a
		}
		quo := home(n)
		rem, writes := quo, lay.pr.Peek(quo)
		if r != nil {
			rem = home(r)
			writes += lay.pr.Peek(rem)
		}
		in.Src = x.base
		c := reads + lay.pr.PeekKernel(in) + writes
		if end := lay.lanes.Peek(lay.opFootprint(n, x, false, quo, rem), c); end < bestEnd {
			best, bestEnd, bestCycles, bestPrivate = i, end, c, false
		}
		if !lay.pipeline {
			continue
		}
		copies := 0
		for _, a := range n.args {
			if !x.holds(a.home) {
				copies += lay.pr.Peek(a.home) + lay.pr.Peek(next)
			}
		}
		if end := lay.lanes.Peek(lay.opFootprint(n, x, true, quo, rem), c+copies); copies > 0 && end < bestEnd {
			best, bestEnd, bestCycles, bestPrivate = i, end, c+copies, true
		}
	}
	return lay.pool[best], bestCycles, bestPrivate
}

// pickCompanion claims a staging DBC of the exec bank for an executing
// DBC of subarray sub: the first free one of that subarray, else the
// first free one of the bank.
func (lay *layout) pickCompanion(sub int) (isa.Addr, bool) {
	g := lay.geo
	try := func(s int) (isa.Addr, bool) {
		for t := 0; t < g.TilesPerSubarray; t++ {
			for d := 0; d < g.DBCsPerTile; d++ {
				base := isa.Addr{Bank: lay.execBank, Subarray: s, Tile: t, DBC: d}
				if !base.IsPIMEnabled(g) && !lay.reserved[base] {
					return base, true
				}
			}
		}
		return isa.Addr{}, false
	}
	if base, ok := try(sub); ok {
		return base, true
	}
	for s := 0; s < g.SubarraysPerBank; s++ {
		if base, ok := try(s); ok {
			return base, true
		}
	}
	return isa.Addr{}, false
}

// takeFree pops the port-nearest unused row of the companion DBC.
func (lay *layout) takeFree(base isa.Addr) (isa.Addr, bool) {
	rows := lay.free[base]
	if len(rows) == 0 {
		return isa.Addr{}, false
	}
	lay.free[base] = rows[1:]
	base.Row = rows[0]
	return base, true
}

// takePrivate pops the port-nearest free row of the companion DBC that is
// rewritable from schedule window win on. Rows recycled by place() stay
// live until their previous owner's last reader has run, so a
// privatization write scheduled into an earlier window must skip them
// instead of clobbering a still-live home (takeFree cannot tell).
func (lay *layout) takePrivate(base isa.Addr, win int) (isa.Addr, bool) {
	rows := lay.free[base]
	for i, r := range rows {
		a := base
		a.Row = r
		if lay.availFrom[a] <= win {
			lay.free[base] = append(rows[:i:i], rows[i+1:]...)
			return a, true
		}
	}
	return isa.Addr{}, false
}

// stageSpread is how many staging DBCs the pipelined (-O2) allocator
// interleaves: consecutive stageRow calls land on different DBCs, so
// the staging requests of one batch window have disjoint footprints
// and become parallel lanes instead of one serial chain.
const stageSpread = 4

// stageRow allocates a row in a non-PIM staging DBC of the exec bank,
// in stageOrder. The pipelined layout refills from stageSpread DBCs at
// once, rows interleaved round-robin.
func (lay *layout) stageRow() (isa.Addr, error) {
	if len(lay.stageRows) == 0 {
		want := 1
		if lay.pipeline {
			want = stageSpread
		}
		var buf [stageSpread]isa.Addr
		bases := buf[:0]
		for len(bases) < want {
			base, ok := lay.nextStageDBC()
			if !ok {
				break
			}
			bases = append(bases, base)
		}
		if len(bases) == 0 {
			return isa.Addr{}, fmt.Errorf("pimc: staging rows exhausted in bank %d", lay.execBank)
		}
		lay.stageRows = make([]isa.Addr, 0, len(bases)*len(lay.stageOrder))
		for _, r := range lay.stageOrder {
			for _, base := range bases {
				base.Row = r
				lay.stageRows = append(lay.stageRows, base)
			}
		}
	}
	a := lay.stageRows[0]
	lay.stageRows = lay.stageRows[1:]
	return a, nil
}

// nextStageDBC advances the staging-DBC cursor to the next usable
// (non-PIM, non-user) DBC of the exec bank.
func (lay *layout) nextStageDBC() (isa.Addr, bool) {
	g := lay.geo
	perSub := g.TilesPerSubarray * g.DBCsPerTile
	for lay.stageSeq < g.SubarraysPerBank*perSub {
		seq := lay.stageSeq
		lay.stageSeq++
		base := isa.Addr{
			Bank:     lay.execBank,
			Subarray: seq / perSub,
			Tile:     seq % perSub / g.DBCsPerTile,
			DBC:      seq % g.DBCsPerTile,
		}
		if base.IsPIMEnabled(g) || lay.reserved[base] {
			continue
		}
		return base, true
	}
	return isa.Addr{}, false
}
