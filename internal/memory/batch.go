package memory

import (
	"slices"
	"sync"

	"repro/internal/dbc"
	"repro/internal/isa"
)

// RequestKind selects what a batch Request does. The zero value is
// KindExec, so pre-existing Request literals keep their meaning.
type RequestKind uint8

const (
	// KindExec runs a cpim instruction — the arguments of an Execute call.
	KindExec RequestKind = iota
	// KindCopy moves Src to Dst over the row buffer (CopyRow).
	KindCopy
	// KindWrite stores Row at Dst through the nearest port (WriteRow).
	KindWrite
	// KindRead loads the row at Src (ReadRow); the row comes back in the
	// request's Result. Reads participate in footprint grouping like
	// every other kind, so a read of a row another request of the batch
	// writes observes the program-order value.
	KindRead
)

// Request is one batch operation for ExecuteBatch. Kind selects the
// shape: KindExec uses In/Operands/Dst (and Rem, for div), KindCopy
// uses Src/Dst, KindWrite uses Row/Dst, and KindRead uses Src. Copies
// and writes participate in the same
// footprint grouping as executions, which is what lets a compiled plan
// hand its staging traffic and compute to one batch and still preserve
// every data dependence (any two requests that touch a common row share
// a DBC, so they land in the same group, in program order).
type Request struct {
	Kind     RequestKind
	In       isa.Instruction
	Operands []isa.Addr
	Dst      isa.Addr
	// Rem, when not nil, names a second destination for a div request:
	// its one DivMod kernel writes the quotient to Dst, then the
	// remainder to Rem. Rem follows Dst's rules (inside the geometry, in
	// the executing DBC's bank) and must differ from it; any other
	// opcode or kind with a Rem is rejected with ErrInvalidRequest.
	Rem *isa.Addr
	Src isa.Addr // KindCopy: source row
	Row dbc.Row  // KindWrite: payload
}

// Result is the outcome of one batch request. For KindCopy and
// KindWrite, Row is the moved/stored row; for KindRead, the loaded row.
type Result struct {
	Row dbc.Row
	Err error
}

// batchGroup is a connected component of requests whose DBC footprints
// overlap: its requests must run in program order relative to each
// other, while distinct groups touch disjoint shards and are concurrent
// lanes of the batch's window.
type batchGroup struct {
	reqs  []int      // request indices, ascending (program order)
	bases []isa.Addr // union of the requests' lock sets, sorted
}

// batchScratch holds every planning-time buffer of a batch: the plans,
// the grouping lanes, and the groups themselves. ExecuteBatch and the
// Pricer draw one from a pool and return it, so steady-state batches
// plan without allocating; a BatchPlan owns one.
type batchScratch struct {
	plans    []execPlan
	runnable []bool
	errs     []error // planning error per request (nil when runnable)
	groups   []batchGroup

	lanes    Lanes // one member per request
	groupIdx []int // lane root -> index into groups

	shards []*shard // per-group lock buffer
}

var scratchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// reset sizes the per-request buffers for n requests, reusing capacity.
func (s *batchScratch) reset(n int) {
	if cap(s.plans) < n {
		s.plans = make([]execPlan, n)
		s.runnable = make([]bool, n)
		s.errs = make([]error, n)
		s.groupIdx = make([]int, n)
	}
	s.plans = s.plans[:n]
	s.runnable = s.runnable[:n]
	s.errs = s.errs[:n]
	s.groupIdx = s.groupIdx[:n]
	for i := 0; i < n; i++ {
		// Keep each plan's bases backing array: planBatch hands it back
		// to planRequest, so steady-state planning reuses it.
		s.plans[i] = execPlan{bases: s.plans[i].bases[:0]}
		s.runnable[i] = false
		s.errs[i] = nil
		s.groupIdx[i] = -1
	}
	s.lanes.Reset()
	s.groups = s.groups[:0]
}

// Lanes groups the members of one batch window into ExecuteBatch's
// lanes: members whose footprints share a DBC join one lane and run
// back to back in member order, disjoint lanes run concurrently, and
// the window costs its longest lane. It is a union-find over the
// members, rooted at each lane's first member, and every root carries
// its lane's summed cycles. planBatch groups requests with it (the
// Pricer prices windows through planBatch), and pimc's placement prices
// the lanes of windows it has not built yet. The zero value is an empty
// window.
type Lanes struct {
	parent []int      // union-find over members
	cycles []int      // lane cycles, valid at a root
	bases  []isa.Addr // distinct DBCs the window touched, linear lookup
	owner  []int      // the first member that touched each of them
}

// NewLanes returns an empty window with room for n members, carved
// from two allocations.
func NewLanes(n int) Lanes {
	ints := make([]int, 3*n)
	return Lanes{
		parent: ints[0:0:n],
		cycles: ints[n : n : 2*n],
		owner:  ints[2*n : 2*n : 3*n],
		bases:  make([]isa.Addr, 0, 2*n+8),
	}
}

// Reset empties the window, keeping its capacity.
func (l *Lanes) Reset() {
	l.parent, l.cycles = l.parent[:0], l.cycles[:0]
	l.bases, l.owner = l.bases[:0], l.owner[:0]
}

// root finds member i's lane root with path halving.
func (l *Lanes) root(i int) int {
	for l.parent[i] != i {
		l.parent[i] = l.parent[l.parent[i]]
		i = l.parent[i]
	}
	return i
}

// owned returns the index in bases of the DBC holding a, or -1. Lock
// sets are tiny (≤ operands+3), and the scan beats a map both in allocs
// and in constant factor at the window sizes the compiler emits.
func (l *Lanes) owned(a isa.Addr) int {
	b := dbcBase(a)
	for k, seen := range l.bases {
		if seen == b {
			return k
		}
	}
	return -1
}

// Add joins a member of the given cycles whose footprint is the DBCs
// holding the addresses in fp, merging every lane that touches one of
// them.
func (l *Lanes) Add(fp []isa.Addr, cycles int) {
	i := len(l.parent)
	l.parent = append(l.parent, i)
	l.cycles = append(l.cycles, cycles)
	for _, a := range fp {
		j := l.owned(a)
		if j < 0 {
			l.bases = append(l.bases, dbcBase(a))
			l.owner = append(l.owner, i)
			continue
		}
		ra, rb := l.root(l.owner[j]), l.root(i)
		if ra == rb {
			continue
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		l.parent[rb] = ra // the lane's first member stays its root
		l.cycles[ra] += l.cycles[rb]
	}
}

// Peek returns the length of the lane a member of footprint fp and the
// given cycles would land in, without adding it.
func (l *Lanes) Peek(fp []isa.Addr, cycles int) int {
	var buf [8]int
	roots := buf[:0]
	for _, a := range fp {
		if j := l.owned(a); j >= 0 {
			if r := l.root(l.owner[j]); !slices.Contains(roots, r) {
				roots = append(roots, r)
				cycles += l.cycles[r]
			}
		}
	}
	return cycles
}

// Span returns the window's cost: its longest lane.
func (l *Lanes) Span() int {
	longest := 0
	for i, p := range l.parent {
		if p == i {
			longest = max(longest, l.cycles[i])
		}
	}
	return longest
}

// planBatch validates every request and partitions the runnable ones
// into lanes by DBC footprint. Groups come out ordered by their first
// request index, and each group's request list preserves program
// order. All state lands in s.
func (pl *planner) planBatch(reqs []Request, s *batchScratch) {
	s.reset(len(reqs))
	for i, r := range reqs {
		// Every request is a member, so member and request indices
		// agree; a rejected one touches nothing and joins no lane.
		p, err := pl.planRequest(r, s.plans[i].bases)
		if err != nil {
			s.errs[i] = err
			s.lanes.Add(nil, 0)
			continue
		}
		s.plans[i], s.runnable[i] = p, true
		s.lanes.Add(p.bases, 0)
	}

	for i := range s.plans {
		if !s.runnable[i] {
			continue
		}
		r := s.lanes.root(i)
		gi := s.groupIdx[r]
		if gi < 0 {
			gi = len(s.groups)
			s.groupIdx[r] = gi
			if len(s.groups) < cap(s.groups) {
				// Re-extend into pooled capacity, reusing the retired
				// group's inner slices.
				s.groups = s.groups[:gi+1]
				s.groups[gi].reqs = s.groups[gi].reqs[:0]
				s.groups[gi].bases = s.groups[gi].bases[:0]
			} else {
				s.groups = append(s.groups, batchGroup{})
			}
		}
		g := &s.groups[gi]
		g.reqs = append(g.reqs, i)
		g.bases = append(g.bases, s.plans[i].bases...)
	}
	for gi := range s.groups {
		s.groups[gi].bases = pl.sortBases(s.groups[gi].bases)
	}
}

// ExecuteBatch runs a batch of requests, exploiting DBC-level
// parallelism in simulated time: requests are grouped by the DBCs they
// touch (requests with overlapping footprints form one group and keep
// their program order; disjoint groups are independent lanes of one
// parallelism window). Results are positional.
//
// Every request is validated upfront exactly as the serial primitives
// validate — invalid requests (including ErrCrossDBC) fail in their
// Result without blocking the rest of the batch, and a request that
// fails at runtime does not stop later requests of its group.
//
// On the host the groups run one after another, in first-request order,
// on the calling goroutine and directly on the memory's recorder; each
// group holds only its own DBCs' striped locks, so concurrent callers on
// disjoint DBCs still proceed in parallel. The memory state and the
// telemetry stream after ExecuteBatch are bit-identical to running the
// requests serially in order — only requests with disjoint footprints
// are reordered, and those commute.
//
// The batch is bracketed in window markers (Recorder.WindowBegin /
// WindowLane / WindowEnd), one lane per group, so Recorder.Makespan
// reports the critical path — the longest group — as the batch's cost,
// while the cycle clock keeps the serial sum. That is the §IV-B
// high-throughput mode (one PIM unit per subarray), modelled in
// simulated time rather than in host goroutines.
//
// Fault injection (SetFaultProfile) keeps this schedule: every DBC draws
// from its own fault stream, so reordering disjoint groups leaves the
// faults each request sees unchanged. Recovery (SetRecovery) runs inside
// the groups; quarantines triggered by the batch are processed after the
// last group.
func (m *Memory) ExecuteBatch(reqs []Request) []Result {
	results := make([]Result, len(reqs))
	s := scratchPool.Get().(*batchScratch)
	m.planBatch(reqs, s)
	m.runBatch(s, results)
	scratchPool.Put(s)
	return results
}

// BatchPlan is a validated, grouped batch: the planning half of
// ExecuteBatch, kept on its own scratch.
type BatchPlan struct {
	s batchScratch
}

// PlanBatch validates and groups the requests without running them. It
// is the planning-only API: the end-to-end benchmark times batch
// planning with it. Execution paths, compiled pimc plans included, call
// ExecuteBatch, which plans the same way on pooled scratch.
func (m *Memory) PlanBatch(reqs []Request) *BatchPlan {
	bp := new(BatchPlan)
	m.planBatch(reqs, &bp.s)
	return bp
}

// runBatch executes a planned batch. Planning errors land in results
// first; the runnable requests then run group by group in first-request
// order directly on the memory's recorder: one window, one lane per
// group.
func (m *Memory) runBatch(s *batchScratch, results []Result) {
	for i, err := range s.errs {
		if err != nil {
			results[i].Err = err
		}
	}

	rec := m.Recorder()
	rec.WindowBegin()
	for gi := range s.groups {
		g := &s.groups[gi]
		rec.WindowLane()
		shards, err := m.lockInto(s.shards[:0], g.bases)
		s.shards = shards[:0]
		if err != nil {
			for _, ri := range g.reqs {
				results[ri].Err = err
			}
			continue
		}
		for _, ri := range g.reqs {
			results[ri].Row, results[ri].Err = m.runRequest(s.plans[ri], shards)
		}
		unlockShards(shards)
	}
	rec.WindowEnd()
	m.processQuarantines()
}
