package compile

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/params"
)

// PlanStats is the placement pass's cost-model accounting for one plan:
// predicted cross-DBC row-buffer transfers and the estimated racetrack
// shift distance between the rows the plan touches and their DBC access
// ports. The bench harness compares these predictions against the
// memory's measured MoveStats / trace counters.
type PlanStats struct {
	CrossDBCMoves int // row-buffer transfers (explicit copies + exec-time staging)
	PortShifts    int // estimated shift steps aligning touched rows with ports
	Batches       int // ExecuteBatch groups issued (0 for the naive serial plan)
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
	trd      params.TRD
	execBank int
	pool     []isa.Addr // executing PIM DBC bases, assignment order
	// free maps each pool base to its unused non-window rows,
	// port-sorted. The lists start out sharing one array, so updates
	// re-slice or build a new slice and never write in place.
	free    map[isa.Addr][]int
	userDBC map[isa.Addr]bool // DBC bases the program names; off-limits to allocators

	stageOrder []int      // row hand-out order of every staging DBC
	stageRows  []isa.Addr // allocated-but-unused rows of the current staging DBCs
	stageSeq   int        // enumeration cursor over candidate staging DBCs

	// availFrom is the earliest schedule-window index (see buildPipelined's
	// window numbering) from which a recycled free row may be rewritten:
	// its previous owner's last reader has run by then. Rows never handed
	// out have no entry (available from window 0).
	availFrom map[isa.Addr]int

	head    map[isa.Addr]int // per-DBC data offset of the racetrack head
	shiftBy map[isa.Addr]int // per-DBC share of stats.PortShifts

	stats PlanStats
}

// shiftsBySource exports the per-DBC shift predictions keyed by the
// telemetry source name memory.Memory assigns the cluster, so they
// join directly against the hardware profiler's measured counters.
func (lay *layout) shiftsBySource() map[string]int {
	out := make(map[string]int, len(lay.shiftBy))
	for base, n := range lay.shiftBy {
		if n > 0 {
			out[isa.DBCSource(base)] = n
		}
	}
	return out
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

// portDist is the shift distance from a row to its nearest access port.
func portDist(row, rows int, trd params.TRD) int {
	l, r := params.PortPlacement(rows, trd)
	return min(abs(row-l), abs(row-r))
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
	l, r := params.PortPlacement(total, trd)
	var lefts, rights []int
	for _, row := range rows {
		if abs(row-l) <= abs(row-r) {
			lefts = append(lefts, row)
		} else {
			rights = append(rights, row)
		}
	}
	return append(portOrder(lefts, total, trd), portOrder(rights, total, trd)...)
}

// place assigns every value a home row and every op an executing DBC.
//
// The optimizing layout (level >= 1) keeps same-bank loads in place,
// homes results in the executing DBC's non-window rows nearest the
// access ports, folds first stores into request destinations, and
// spreads each DAG level over execDBCs PIM DBCs. At level >= 2 the
// staging allocator additionally round-robins its rows across several
// staging DBCs, so the pipelined schedule's staging lanes land on
// disjoint footprints and run concurrently inside a batch window. The
// naive layout (level 0) models hand-placed execution: one PIM DBC,
// every input copied to sequential staging rows (far from the ports),
// every store an explicit copy — the baseline the differential harness
// and the bench compare against.
func (p *Program) place(cfg params.Config, level int, execDBCs int, recycle bool) (*layout, error) {
	g := cfg.Geometry
	opt := level >= 1
	lay := &layout{
		opt:       opt,
		pipeline:  level >= 2,
		recycle:   opt && recycle,
		geo:       g,
		trd:       cfg.TRD,
		free:      make(map[isa.Addr][]int),
		userDBC:   make(map[isa.Addr]bool),
		availFrom: make(map[isa.Addr]int),
		head:      make(map[isa.Addr]int),
		shiftBy:   make(map[isa.Addr]int),
	}

	// The program's own rows (and their whole DBCs) are off-limits to
	// the allocators, so a home can never alias a load or store address.
	bankVotes := make(map[int]int)
	for _, n := range p.nodes {
		if n.kind == nLoad || n.kind == nStore {
			lay.userDBC[dbcBase(n.addr)] = true
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

	if !opt {
		execDBCs = 1
	}
	execDBCs = max(1, min(execDBCs, g.SubarraysPerBank*g.PIMTilesPerSub*g.PIMDBCsPerTile))
	for sub := 0; sub < g.SubarraysPerBank && len(lay.pool) < execDBCs; sub++ {
		for tile := 0; tile < g.PIMTilesPerSub && len(lay.pool) < execDBCs; tile++ {
			for d := g.DBCsPerTile - g.PIMDBCsPerTile; d < g.DBCsPerTile && len(lay.pool) < execDBCs; d++ {
				base := isa.Addr{Bank: lay.execBank, Subarray: sub, Tile: tile, DBC: d}
				if lay.userDBC[base] {
					continue
				}
				lay.pool = append(lay.pool, base)
			}
		}
	}
	if len(lay.pool) == 0 {
		return nil, fmt.Errorf("pimc: no free PIM-enabled DBC in bank %d", lay.execBank)
	}
	// Non-window rows of each executing DBC: rows the op window never
	// clobbers, so results parked there survive later operations. The
	// order depends only on the geometry, so every DBC shares one.
	left, right := params.PortPlacement(g.RowsPerDBC, cfg.TRD)
	loClobber, hiClobber := left-int(cfg.TRD), right+int(cfg.TRD)
	var rows []int
	for r := 0; r < g.RowsPerDBC; r++ {
		if r < loClobber || r > hiClobber {
			rows = append(rows, r)
		}
	}
	nonWindow := sideOrder(rows, g.RowsPerDBC, cfg.TRD)
	for _, base := range lay.pool {
		lay.free[base] = nonWindow
	}
	// Staging DBCs hand out every row: nearest port first when
	// optimizing, sequentially from row 0 in the naive layout.
	lay.stageOrder = make([]int, g.RowsPerDBC)
	for r := range lay.stageOrder {
		lay.stageOrder[r] = r
	}
	if opt {
		lay.stageOrder = sideOrder(lay.stageOrder, g.RowsPerDBC, cfg.TRD)
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
			lay.stats.CrossDBCMoves++
			lay.stats.PortShifts += lay.access(n.addr) + lay.access(home)
		case nConst:
			home, err := lay.stageRow()
			if err != nil {
				return nil, err
			}
			n.home = home
			owned[n] = rowOwner{base: dbcBase(home), staged: true}
			lay.stats.PortShifts += lay.access(home)
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
			lay.stats.RowsRecycled++
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

		assigned := make(map[isa.Addr]int, len(lay.pool))
		reqs := 0
		for _, n := range p.nodes {
			if n.kind != nOp || n.level != lv {
				continue
			}
			reqs++
			best, bestCost := lay.pool[0], 1<<30
			for _, e := range lay.pool {
				c := 2 * assigned[e] // spread a level across the pool
				for _, a := range n.args {
					if dbcBase(a.home) == e {
						c += lay.dist(a.home.Row)
					} else {
						c += 8 // row-buffer staging into the window
					}
				}
				if c < bestCost {
					best, bestCost = e, c
				}
			}
			n.exec = best
			assigned[best]++
			for _, a := range n.args {
				lay.stats.PortShifts += lay.access(a.home)
				if dbcBase(a.home) != best {
					lay.stats.CrossDBCMoves++
				}
			}
			if s := directFor[n]; s != nil {
				n.home, s.direct = s.addr, true
			} else {
				var home isa.Addr
				var ok bool
				if opt {
					// Results live in the executing DBC's own non-window
					// rows, nearest port first; the naive layout parks
					// everything in far staging rows instead.
					home, ok = lay.takeFree(best)
				}
				if ok {
					owned[n] = rowOwner{base: best}
				} else {
					var err error
					if home, err = lay.stageRow(); err != nil {
						return nil, err
					}
					owned[n] = rowOwner{base: dbcBase(home), staged: true}
				}
				n.home = home
			}
			lay.stats.PortShifts += lay.access(n.home)
		}
		if reqs > 0 {
			lay.stats.Requests += reqs
			if opt {
				lay.stats.Batches++
			}
		}
	}

	// Pass 3: remaining stores are explicit row-buffer copies.
	for _, n := range p.nodes {
		if n.kind == nStore && !n.direct {
			lay.stats.CrossDBCMoves++
			lay.stats.PortShifts += lay.access(n.args[0].home) + lay.access(n.addr)
		}
	}
	return lay, nil
}

// access prices aligning a.Row under the nearest feasible port of its
// DBC, walking that DBC's head the same way Nanowire.NearestPort/Align
// do at run time, and returns the step count. Pricing from the head's
// current position (rather than the rest-position port distance) is
// what makes consecutive accesses to adjacent rows cost ~1 step — the
// effect the rest-position model overstates on small programs.
func (lay *layout) access(a isa.Addr) int {
	rows, trd := lay.geo.RowsPerDBC, int(lay.trd)
	pl, pr := params.PortPlacement(rows, lay.trd)
	base := dbcBase(a)
	off := lay.head[base]
	dl, dr := pl-a.Row-off, pr-a.Row-off
	d := dr
	if a.Row <= rows-trd && (a.Row < trd-1 || abs(dl) <= abs(dr)) {
		d = dl
	}
	lay.head[base] += d
	lay.shiftBy[base] += abs(d)
	return abs(d)
}

func (lay *layout) dist(row int) int {
	return portDist(row, lay.geo.RowsPerDBC, lay.trd)
}

// takeFree pops the port-nearest unused non-window row of the DBC.
func (lay *layout) takeFree(base isa.Addr) (isa.Addr, bool) {
	rows := lay.free[base]
	if len(rows) == 0 {
		return isa.Addr{}, false
	}
	lay.free[base] = rows[1:]
	base.Row = rows[0]
	return base, true
}

// takePrivate pops the port-nearest free row of the DBC that is
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
		if base.IsPIMEnabled(g) || lay.userDBC[base] {
			continue
		}
		return base, true
	}
	return isa.Addr{}, false
}
