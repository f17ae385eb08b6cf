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

// pimKernels lists a kernel key for every PIM opcode and every operand
// count the TR window takes at the TRD and blocksize; shl and shr shift
// by 3.
func pimKernels(trd params.TRD, bs int) []kernelKey {
	var keys []kernelKey
	for _, op := range pimOps {
		lo, hi, imm := 1, 1, 0
		switch op {
		case isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpMax:
			lo, hi = 2, trd.MaxBulkOperands()
		case isa.OpAdd:
			lo, hi = 2, trd.MaxAddOperands()
		case isa.OpMult, isa.OpDiv, isa.OpMod:
			lo, hi = 2, 2
		case isa.OpFma:
			lo, hi = 3, 3
		case isa.OpVote:
			lo, hi = 3, int(trd)
		case isa.OpShl, isa.OpShr:
			imm = 3
		}
		for k := lo; k <= hi; k++ {
			if op != isa.OpVote || trd.ValidNMR(k) {
				keys = append(keys, kernelKey{op: op, bs: bs, k: k, imm: imm, trd: trd})
			}
		}
	}
	return keys
}

// kernelBand returns the rows a kernel may overwrite on a PIM DBC of the
// geometry: from TRD rows left of the left port's rest row to TRD rows
// right of the right port's, the package doc's band.
func kernelBand(rows int, trd params.TRD) (lo, hi int) {
	pl, pr := params.PortPlacement(rows, trd)
	return pl - int(trd), pr + int(trd)
}

// TestKernelBand holds every PIM kernel to the band the package doc
// states: on a PIM DBC whose every row holds data, each opcode at every
// operand count, entered from head offsets −TRD−1 to TRD+1 at TRD 3, 5
// and 7, leaves every row outside the band intact.
func TestKernelBand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width = 64
	rows := params.DefaultGeometry().RowsPerDBC
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		lo, hi := kernelBand(rows, trd)
		for _, bs := range []int{8, 16} {
			for _, key := range pimKernels(trd, bs) {
				for entry := -int(trd) - 1; entry <= int(trd)+1; entry++ {
					u, err := kernelUnit(key, width, entry)
					if err != nil {
						t.Fatal(err)
					}
					fill := make([]dbc.Row, rows)
					for r := range fill {
						fill[r] = dbc.NewRow(width)
						for i := range fill[r].Words {
							fill[r].Words[i] = rng.Uint64()
						}
						u.D.LoadRow(r, fill[r])
					}
					if _, _, err := isa.Dispatch(u, key.instruction(), randomOperands(rng, key, width)); err != nil {
						t.Fatalf("%v bs=%d k=%d %v entry %d: %v", key.op, bs, key.k, trd, entry, err)
					}
					for r := range fill {
						if (r < lo || r > hi) && !u.D.PeekRow(r).Equal(fill[r]) {
							t.Errorf("%v bs=%d k=%d %v entered at %d overwrote row %d, outside the band %d..%d",
								key.op, bs, key.k, trd, entry, r, lo, hi)
						}
					}
				}
			}
		}
	}
}

// FuzzKernelEntry runs a random kernel (opcode and operand count from
// pimKernels, blocksize 8, 16 or 32, any TRD, any shl/shr amount) on
// random operands from a random head offset within two steps past the
// ±TRD band: its result and remainder must be bit-identical to a run
// from rest, and its shift steps, cycles and exit offset must be what
// the kernel cost table predicts for that entry.
func FuzzKernelEntry(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), uint8(2), int8(1), int64(1))
	f.Add(uint8(8), uint8(0), uint8(0), uint8(2), int8(-3), int64(2))
	f.Add(uint8(12), uint8(0), uint8(1), uint8(1), int8(9), int64(3))
	f.Add(uint8(16), uint8(0), uint8(0), uint8(2), int8(5), int64(4))
	f.Fuzz(func(t *testing.T, keySel, immSel, bsSel, trdSel uint8, entrySel int8, seed int64) {
		trd := []params.TRD{params.TRD3, params.TRD5, params.TRD7}[int(trdSel)%3]
		bs := []int{8, 16, 32}[int(bsSel)%3]
		keys := pimKernels(trd, bs)
		key := keys[int(keySel)%len(keys)]
		if key.op == isa.OpShl || key.op == isa.OpShr {
			key.imm = int(immSel) % (bs + 1)
		}
		span := 2*int(trd) + 5
		entry := ((int(entrySel)%span)+span)%span - int(trd) - 2
		const width = 64
		operands := randomOperands(rand.New(rand.NewSource(seed)), key, width)
		run := func(entry int) (kernelRun, dbc.Row, dbc.Row) {
			u, err := kernelUnit(key, width, entry)
			if err != nil {
				t.Fatal(err)
			}
			res, rem, err := isa.Dispatch(u, key.instruction(), operands)
			if err != nil {
				t.Fatalf("%+v entered at %d: %v", key, entry, err)
			}
			st := u.Stats()
			return kernelRun{st.ShiftSteps, st.Cycles(), u.D.Offset()}, res, rem
		}
		got, res, rem := run(entry)
		_, res0, rem0 := run(0)
		if !res.Equal(res0) || !rem.Equal(rem0) {
			t.Errorf("%v bs=%d k=%d imm=%d %v entered at %d: result differs from the run at rest",
				key.op, bs, key.k, key.imm, trd, entry)
		}
		kc, err := costOf(key)
		if err != nil {
			t.Fatal(err)
		}
		if shifts, cycles, exit := kc.run(entry); got != (kernelRun{shifts, cycles, exit}) {
			t.Errorf("%v bs=%d k=%d imm=%d %v entered at %d: ran %+v, table says %d shifts, %d cycles, exit %d",
				key.op, bs, key.k, key.imm, trd, entry, got, shifts, cycles, exit)
		}
	})
}
