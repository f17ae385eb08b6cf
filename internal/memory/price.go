package memory

import (
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/params"
)

// Cost is what the Pricer predicts a batch window costs: the numbers
// the memory's recorder and MoveStats measure when ExecuteBatch runs
// the window fault-free.
type Cost struct {
	Cycles    int // device control steps, the serial sum (Recorder.Cycle)
	Makespan  int // the window's longest lane (Recorder.Makespan)
	RowCopies int // copy requests plus operands staged from another DBC
	Shifts    int // shift steps: port alignment and kernel shifts
	Execs     int // cpim requests that run
}

// Pricer predicts what ExecuteBatch windows cost on a fault-free memory
// of one configuration, without running them. It plans each window
// with planBatch, so validation, footprints and lanes are the ones
// ExecuteBatch runs, and prices every request as runRequest runs it:
//   - a port access aligns the row under its nearest feasible port
//     (device.NearestPortAt) from wherever the DBC's head was left, then
//     takes one port step;
//   - an exec reads its operands (runPlan's staging rule counts the row
//     copies), runs its kernel on the executing DBC as the kernel cost
//     table measured it, and writes its result and, for a paired div,
//     its remainder.
//
// Like RacetrackEmulator's per-tape-group offset, every DBC's head
// offset is state, so the same access costs what the head's last
// position makes it cost. A new Pricer has every head at rest, as on a
// fresh memory. A Pricer is not safe for concurrent use.
type Pricer struct {
	planner
	heads []head
	err   error // first kernel the table could not price
}

// head is one DBC's head offset and the shift steps priced on it.
type head struct {
	base   isa.Addr
	off    int
	shifts int
}

// NewPricer returns a pricer for memories of the configuration, which
// must pass Validate, with every head at rest and room for the dozen
// or so DBCs a compiled program touches.
func NewPricer(cfg params.Config) *Pricer {
	return &Pricer{planner: planner{cfg: cfg}, heads: make([]head, 0, 16)}
}

// Reset puts every head back at rest and forgets the steps and the
// error priced so far.
func (p *Pricer) Reset() {
	p.heads, p.err = p.heads[:0], nil
}

// head returns the head of the DBC holding a, adding it at rest on
// first touch. The pointer is valid until the next head call.
func (p *Pricer) head(a isa.Addr) *head {
	b := dbcBase(a)
	for i := range p.heads {
		if p.heads[i].base == b {
			return &p.heads[i]
		}
	}
	p.heads = append(p.heads, head{base: b})
	return &p.heads[len(p.heads)-1]
}

// offset returns the head offset of the DBC holding a without touching
// it.
func (p *Pricer) offset(a isa.Addr) int {
	b := dbcBase(a)
	for _, h := range p.heads {
		if h.base == b {
			return h.off
		}
	}
	return 0
}

// align is the shift distance that brings a's row under its nearest
// feasible port from head offset off, and the offset it leaves.
func (p *Pricer) align(a isa.Addr, off int) (steps, to int) {
	_, d := device.NearestPortAt(p.cfg.Geometry.RowsPerDBC, p.cfg.TRD, a.Row, off)
	return abs(d), off + d
}

// Access prices one port read or write of the row at a, the align
// shifts plus the port step, and moves its DBC's head.
func (p *Pricer) Access(a isa.Addr) int {
	h := p.head(a)
	steps, to := p.align(a, h.off)
	h.off, h.shifts = to, h.shifts+steps
	return steps + 1
}

// Peek is Access without moving the head.
func (p *Pricer) Peek(a isa.Addr) int {
	steps, _ := p.align(a, p.offset(a))
	return steps + 1
}

// kernel returns the measured cost of the instruction's kernel. A
// kernel the table cannot measure prices as free and is remembered for
// Err; it would fail at run time too.
func (p *Pricer) kernel(in isa.Instruction) kernelCost {
	kc, err := costOf(kernelKey{op: in.Op, bs: in.Blocksize, k: in.Operands, imm: in.Imm, trd: p.cfg.TRD})
	if err != nil && p.err == nil {
		p.err = err
	}
	return kc
}

// PeekKernel prices the instruction's kernel on its executing DBC,
// in.Src, entered as that DBC's head stands, without moving the head.
func (p *Pricer) PeekKernel(in isa.Instruction) int {
	_, cycles, _ := p.kernel(in).run(p.offset(in.Src))
	return cycles
}

// Exec prices one cpim request as runPlan runs it, and moves the heads:
// the operand reads in order, the kernel on in.Src from that DBC's
// head, the result write and, when rem is not nil, the remainder write.
func (p *Pricer) Exec(in isa.Instruction, operands []isa.Addr, dst isa.Addr, rem *isa.Addr) int {
	c := 0
	for _, a := range operands {
		c += p.Access(a)
	}
	h := p.head(in.Src)
	shifts, cycles, exit := p.kernel(in).run(h.off)
	h.off, h.shifts = exit, h.shifts+shifts
	c += cycles + p.Access(dst)
	if rem != nil {
		c += p.Access(*rem)
	}
	return c
}

// Window prices one ExecuteBatch window of the requests and moves the
// heads as running it would. A request ExecuteBatch rejects costs
// nothing: it never runs.
func (p *Pricer) Window(reqs []Request) Cost {
	s := scratchPool.Get().(*batchScratch)
	p.planBatch(reqs, s)
	c := Cost{Shifts: -p.shifts()}
	for gi := range s.groups {
		lane := 0
		for _, ri := range s.groups[gi].reqs {
			lane += p.request(&s.plans[ri], &c)
		}
		c.Cycles += lane
		c.Makespan = max(c.Makespan, lane)
	}
	c.Shifts += p.shifts()
	scratchPool.Put(s)
	return c
}

// request prices one planned request as runRequest runs it, moves the
// heads, and counts its row copies and cpim execution into c. It
// returns the request's cycles.
func (p *Pricer) request(plan *execPlan, c *Cost) int {
	switch plan.kind {
	case KindCopy:
		c.RowCopies++
		return p.Access(plan.src) + p.Access(plan.dst)
	case KindWrite:
		return p.Access(plan.dst)
	case KindRead:
		return p.Access(plan.src)
	}
	c.Execs++
	for _, a := range plan.operands {
		if staged(a, plan.in.Src) {
			c.RowCopies++
		}
	}
	return p.Exec(plan.in, plan.operands, plan.dst, plan.rem)
}

// shifts sums the shift steps priced on every head.
func (p *Pricer) shifts() int {
	n := 0
	for _, h := range p.heads {
		n += h.shifts
	}
	return n
}

// ShiftsByDBC returns the shift steps priced on each DBC since the
// pricer was made or Reset, keyed by the telemetry source name the
// memory gives the DBC (isa.DBCSource), so they join directly against
// a profiler's measured counters. DBCs with no steps are left out.
func (p *Pricer) ShiftsByDBC() map[string]int {
	out := make(map[string]int, len(p.heads))
	for _, h := range p.heads {
		if h.shifts > 0 {
			out[isa.DBCSource(h.base)] = h.shifts
		}
	}
	return out
}

// Err returns the first kernel the table could not price since the
// pricer was made or Reset. That kernel priced as free.
func (p *Pricer) Err() error { return p.err }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
