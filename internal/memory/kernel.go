package memory

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
)

// kernelKey names one PIM kernel shape: everything its device cost
// depends on. imm is the shift amount of shl and shr, whose shift step
// count is that amount, and zero for every other opcode.
type kernelKey struct {
	op  isa.OpCode
	bs  int
	k   int // operand count
	imm int
	trd params.TRD
}

// instruction returns the cpim instruction of the key's kernel.
func (k kernelKey) instruction() isa.Instruction {
	return isa.Instruction{Op: k.op, Blocksize: k.bs, Operands: k.k, Imm: k.imm}
}

// kernelCost is one kernel's device cost, measured by running it on a
// scratch pim.Unit. A window kernel places its operands through the
// access port on the head's side: entered at head offset e within
// ±band of rest, it costs its side's steps — left for e ≤ 0, right for
// e > 0 — and exits at e plus that side's delta. Entered further out, it
// first walks the head back to rest, |e| shift steps, and then runs as
// entered at rest. Two-sided kernels have band TRD. The recentering
// kernels (MaxTR's tournament, the TRD=3 two-placement subtraction)
// have band 0, and the kernels that never move the head (relu, shl,
// shr) an unbounded band with both sides equal. No cost depends on the
// operand data.
type kernelCost struct {
	band        int
	left, right kernelSide
}

// kernelSide is a kernel's cost entered from one side of rest.
type kernelSide struct {
	shifts int // shift steps
	cycles int // control steps, shifts included
	delta  int // head offset on exit minus the entry offset
}

// run prices the kernel entered at head offset entry: its shift steps,
// its cycles and the head offset it leaves behind.
func (c kernelCost) run(entry int) (shifts, cycles, exit int) {
	walk := 0
	if abs(entry) > c.band {
		walk, entry = abs(entry), 0
	}
	s := c.left
	if entry > 0 {
		s = c.right
	}
	return walk + s.shifts, walk + s.cycles, entry + s.delta
}

// kernelCosts is the process-wide kernel cost table: each key is
// measured once, on first use, and read under the read lock after
// that, so warm pricing allocates nothing here.
var kernelCosts struct {
	mu sync.RWMutex
	m  map[kernelKey]kernelCost
}

// costOf returns the kernel's measured cost, measuring it on first use.
// Two pricers racing on a cold key both measure it and store the same
// value.
func costOf(key kernelKey) (kernelCost, error) {
	kernelCosts.mu.RLock()
	c, ok := kernelCosts.m[key]
	kernelCosts.mu.RUnlock()
	if ok {
		return c, nil
	}
	c, err := measureKernel(key)
	if err != nil {
		return kernelCost{}, err
	}
	kernelCosts.mu.Lock()
	if kernelCosts.m == nil {
		kernelCosts.m = make(map[kernelKey]kernelCost)
	}
	kernelCosts.m[key] = c
	kernelCosts.mu.Unlock()
	return c, nil
}

// kernelRun is one measured kernel execution.
type kernelRun struct {
	shifts, cycles, exit int
}

// measureKernel runs the kernel from head offsets 0 and 1, which give
// its left and right sides, and from −TRD−1, −TRD, TRD and TRD+1, which
// tell the band: TRD for a two-sided kernel, 0 for a recentering one,
// unbounded for one that never moves the head. A kernel whose six runs
// fit none of the three shapes has a cost the table cannot hold, which
// is an error.
func measureKernel(key kernelKey) (kernelCost, error) {
	width := max(scratchWidth, key.bs)
	trd := int(key.trd)
	entries := [...]int{0, 1, -trd - 1, -trd, trd, trd + 1}
	var runs [len(entries)]kernelRun
	for i, e := range entries {
		r, err := runKernel(key, width, e, nil)
		if err != nil {
			return kernelCost{}, err
		}
		runs[i] = r
	}
	left := kernelSide{runs[0].shifts, runs[0].cycles, runs[0].exit}
	right := kernelSide{runs[1].shifts, runs[1].cycles, runs[1].exit - 1}
	for _, c := range []kernelCost{
		{band: math.MaxInt, left: left, right: left},
		{band: trd, left: left, right: right},
		{band: 0, left: left, right: left},
	} {
		if c.fits(entries[:], runs[:]) {
			return c, nil
		}
	}
	return kernelCost{}, fmt.Errorf("memory: %v bs=%d k=%d cost depends on the entry head offset in a way the table cannot hold: %+v at entry offsets %v",
		key.op, key.bs, key.k, runs, entries)
}

// fits reports whether c predicts every measured run.
func (c kernelCost) fits(entries []int, runs []kernelRun) bool {
	for i, e := range entries {
		if shifts, cycles, exit := c.run(e); runs[i] != (kernelRun{shifts, cycles, exit}) {
			return false
		}
	}
	return true
}

// scratchWidth is the track width of the measuring unit, widened to
// one lane for blocksizes past it. The step counts depend on neither
// the width nor the data.
const scratchWidth = 64

// kernelUnit returns a fresh scratch unit of the default geometry at
// the key's TRD and the given track width, its head at offset entry and
// its step counts cleared.
func kernelUnit(key kernelKey, width, entry int) (*pim.Unit, error) {
	cfg := params.DefaultConfig()
	cfg.TRD = key.trd
	cfg.Geometry.TrackWidth = width
	u, err := pim.NewUnit(cfg)
	if err != nil {
		return nil, err
	}
	if err := u.D.Shift(entry); err != nil {
		return nil, err
	}
	u.ResetStats()
	return u, nil
}

// runKernel executes the kernel once on a kernelUnit over the given
// operand rows (zero rows when nil), and returns what it cost.
func runKernel(key kernelKey, width, entry int, operands []dbc.Row) (kernelRun, error) {
	u, err := kernelUnit(key, width, entry)
	if err != nil {
		return kernelRun{}, err
	}
	if operands == nil {
		operands = make([]dbc.Row, key.k)
		for i := range operands {
			operands[i] = dbc.NewRow(width)
		}
	}
	if _, _, err := isa.Dispatch(u, key.instruction(), operands); err != nil {
		return kernelRun{}, fmt.Errorf("memory: measuring %v bs=%d k=%d: %w", key.op, key.bs, key.k, err)
	}
	st := u.Stats()
	return kernelRun{shifts: st.ShiftSteps, cycles: st.Cycles(), exit: u.D.Offset()}, nil
}
