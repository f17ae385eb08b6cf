package memory

import (
	"fmt"
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

// kernelCost is one kernel's device cost, measured by running it on a
// scratch pim.Unit. A realigning kernel (every kernel that places its
// operands in the TR window) first shifts the head back to rest, which
// costs |entry offset| shift steps, and exits at a fixed offset; the
// others (relu, shl, shr) never move the head, so they exit where they
// entered. Past the realign, the cost does not depend on the operand
// data or on the entry offset.
type kernelCost struct {
	realign bool
	shifts  int // shift steps past the realign
	cycles  int // control steps past the realign, shifts included
	exit    int // head offset on exit; added to the entry offset when !realign
}

// run prices the kernel entered at head offset entry: its shift steps,
// its cycles and the head offset it leaves behind.
func (c kernelCost) run(entry int) (shifts, cycles, exit int) {
	if !c.realign {
		return c.shifts, c.cycles, entry + c.exit
	}
	return abs(entry) + c.shifts, abs(entry) + c.cycles, c.exit
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

// measureKernel runs the kernel from head offsets 0 and 1 and reads off
// its cost: a realigning kernel pays the extra step and exits at the
// same offset, a non-realigning one pays nothing extra and exits one
// step further. Any other response means the cost depends on the head
// in a way the table cannot hold, which is an error.
func measureKernel(key kernelKey) (kernelCost, error) {
	width := max(scratchWidth, key.bs)
	at0, err := runKernel(key, width, 0, nil)
	if err != nil {
		return kernelCost{}, err
	}
	at1, err := runKernel(key, width, 1, nil)
	if err != nil {
		return kernelCost{}, err
	}
	switch {
	case at1 == kernelRun{at0.shifts + 1, at0.cycles + 1, at0.exit}:
		return kernelCost{realign: true, shifts: at0.shifts, cycles: at0.cycles, exit: at0.exit}, nil
	case at1 == kernelRun{at0.shifts, at0.cycles, at0.exit + 1}:
		return kernelCost{shifts: at0.shifts, cycles: at0.cycles, exit: at0.exit}, nil
	}
	return kernelCost{}, fmt.Errorf("memory: %v bs=%d k=%d cost depends on the entry head offset: %+v at 0, %+v at 1",
		key.op, key.bs, key.k, at0, at1)
}

// scratchWidth is the track width of the measuring unit, widened to
// one lane for blocksizes past it. The step counts depend on neither
// the width nor the data.
const scratchWidth = 64

// runKernel executes the kernel once on a fresh scratch unit of the
// default geometry at the key's TRD and the given track width, whose
// head starts at offset entry, over the given operand rows (zero rows
// when nil), and returns what it cost.
func runKernel(key kernelKey, width, entry int, operands []dbc.Row) (kernelRun, error) {
	cfg := params.DefaultConfig()
	cfg.TRD = key.trd
	cfg.Geometry.TrackWidth = width
	u, err := pim.NewUnit(cfg)
	if err != nil {
		return kernelRun{}, err
	}
	if err := u.D.Shift(entry); err != nil {
		return kernelRun{}, err
	}
	u.ResetStats()
	if operands == nil {
		operands = make([]dbc.Row, key.k)
		for i := range operands {
			operands[i] = dbc.NewRow(cfg.Geometry.TrackWidth)
		}
	}
	in := isa.Instruction{Op: key.op, Blocksize: key.bs, Operands: key.k, Imm: key.imm}
	if _, _, err := isa.Dispatch(u, in, operands); err != nil {
		return kernelRun{}, fmt.Errorf("memory: measuring %v bs=%d k=%d: %w", key.op, key.bs, key.k, err)
	}
	st := u.Stats()
	return kernelRun{shifts: st.ShiftSteps, cycles: st.Cycles(), exit: u.D.Offset()}, nil
}
