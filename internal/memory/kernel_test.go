package memory

import (
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
)

// reachedKernels lists every kernel key pimc's example corpus and its
// random DAG programs reach at blocksizes 8 and 16: add with 2..5
// operands, the bulk ops and max at every width the TR window takes,
// not, mult, fma, div, mod, relu, and shl/shr at every shift amount.
// A few lanes wider than the measuring track close the list, the
// two-candidate max (the compare-select kernel) among them.
func reachedKernels() []kernelKey {
	var keys []kernelKey
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, bs := range []int{8, 16} {
			add := func(op isa.OpCode, k, imm int) {
				keys = append(keys, kernelKey{op: op, bs: bs, k: k, imm: imm, trd: trd})
			}
			for k := 2; k <= min(5, trd.MaxAddOperands()); k++ {
				add(isa.OpAdd, k, 0)
			}
			for k := 2; k <= trd.MaxBulkOperands(); k++ {
				for _, op := range []isa.OpCode{isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMax} {
					add(op, k, 0)
				}
			}
			add(isa.OpNot, 1, 0)
			add(isa.OpRelu, 1, 0)
			add(isa.OpMult, 2, 0)
			add(isa.OpFma, 3, 0)
			add(isa.OpDiv, 2, 0)
			add(isa.OpMod, 2, 0)
			for imm := 0; imm <= bs; imm++ {
				add(isa.OpShl, 1, imm)
				add(isa.OpShr, 1, imm)
			}
		}
	}
	for _, bs := range []int{128, 512} {
		for _, op := range []isa.OpCode{isa.OpAdd, isa.OpXor, isa.OpMax, isa.OpMult, isa.OpDiv} {
			keys = append(keys, kernelKey{op: op, bs: bs, k: 2, trd: params.TRD7})
		}
	}
	return keys
}

func laneMask(bs int) uint64 {
	if bs >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bs) - 1
}

// randomOperands draws the key's operand rows: random lanes, narrowed to
// half a lane for the multiplier inputs of mult and fma.
func randomOperands(rng *rand.Rand, key kernelKey, width int) []dbc.Row {
	rows := make([]dbc.Row, key.k)
	for i := range rows {
		lanes := make([]uint64, width/key.bs)
		for l := range lanes {
			lanes[l] = rng.Uint64() & laneMask(key.bs)
			if (key.op == isa.OpMult || key.op == isa.OpFma) && i < 2 {
				lanes[l] &= laneMask(key.bs / 2)
			}
		}
		rows[i] = pim.MustPackLanes(lanes, key.bs, width)
	}
	return rows
}

// TestKernelCostsDataIndependent holds the kernel cost table to fresh
// runs: for every key the corpus and the random DAGs reach, a run on
// random operands, at the measuring width and at the default 512, from
// an arbitrary entry head offset must reproduce the entry's shift
// steps, cycles and exit offset.
func TestKernelCostsDataIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, key := range reachedKernels() {
		kc, err := costOf(key)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := device.OffsetRange(params.DefaultGeometry().RowsPerDBC, key.trd)
		for trial := 0; trial < 4; trial++ {
			width := max([]int{scratchWidth, 512}[trial%2], key.bs)
			entry := lo + rng.Intn(hi-lo+1)
			got, err := runKernel(key, width, entry, randomOperands(rng, key, width))
			if err != nil {
				t.Fatalf("%+v: %v", key, err)
			}
			shifts, cycles, exit := kc.run(entry)
			if want := (kernelRun{shifts, cycles, exit}); got != want {
				t.Errorf("%v bs=%d k=%d imm=%d %v, width %d, entry %d: ran %+v, table says %+v",
					key.op, key.bs, key.k, key.imm, key.trd, width, entry, got, want)
			}
		}
	}
	warm := reachedKernels()[0]
	if n := testing.AllocsPerRun(100, func() { _, _ = costOf(warm) }); n != 0 {
		t.Errorf("warm kernel-table lookup allocates %.1f times", n)
	}
}

// resetKernelCosts empties the process-wide kernel cost table.
func resetKernelCosts() {
	kernelCosts.mu.Lock()
	kernelCosts.m = nil
	kernelCosts.mu.Unlock()
}
