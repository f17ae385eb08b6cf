package memory

import (
	"reflect"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
)

// engineShapedBatch builds a 160-request batch of 32 independent
// groups, one per PIM DBC of 8 banks × 4 subarrays: each group writes
// three operand rows of a data DBC in its subarray, runs one cpim op
// over two to five of them and reads the result back.
func engineShapedBatch(cfg params.Config) []Request {
	g := cfg.Geometry
	reqs := make([]Request, 0, 160)
	ops := []isa.OpCode{isa.OpAdd, isa.OpMult, isa.OpMax, isa.OpXor, isa.OpFma}
	for grp := 0; grp < 32; grp++ {
		bank, sub := grp/4, grp%4
		exec := isa.Addr{Bank: bank, Subarray: sub, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
		row := func(r int) isa.Addr { return isa.Addr{Bank: bank, Subarray: sub, Tile: 1, Row: r} }
		for r := 0; r < 3; r++ {
			reqs = append(reqs, Request{Kind: KindWrite, Dst: row(r), Row: dbc.NewRow(g.TrackWidth)})
		}
		op, k := ops[grp%len(ops)], 2
		switch op {
		case isa.OpAdd:
			k = 2 + grp%4
		case isa.OpFma:
			k = 3
		}
		operands := []isa.Addr{row(0), row(1), row(2), row(0), row(1)}[:k]
		reqs = append(reqs,
			Request{In: isa.Instruction{Op: op, Src: exec, Blocksize: 8, Operands: k}, Operands: operands, Dst: row(3)},
			Request{Kind: KindRead, Src: row(3)})
	}
	return reqs
}

// TestPlanBatchAllocs pins what planning a batch allocates: a cold
// scratch (a pool miss, or the one PlanBatch owns) sizes every
// per-request and per-group list once, from the requests' operand
// counts, and a warm one allocates nothing. A scratch a smaller batch
// sized plans the batch as a fresh one does.
func TestPlanBatchAllocs(t *testing.T) {
	cfg := params.DefaultConfig()
	pl := &planner{cfg: cfg}
	reqs := engineShapedBatch(cfg)
	warm := new(batchScratch)
	pl.planBatch(reqs, warm)
	if len(warm.groups) != 32 {
		t.Fatalf("%d groups, want 32", len(warm.groups))
	}
	for i := range warm.plans {
		if warm.errs[i] != nil {
			t.Fatalf("request %d: %v", i, warm.errs[i])
		}
	}
	// A scratch sized for a smaller batch (the single-request path's,
	// say) regrows every array and groups the batch the same way.
	small := new(batchScratch)
	pl.planBatch(reqs[3:4], small)
	pl.planBatch(reqs, small)
	if !reflect.DeepEqual(small.groups, warm.groups) {
		t.Fatalf("a regrown scratch groups the batch differently:\n%v\nwant %v", small.groups, warm.groups)
	}

	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	cold := testing.AllocsPerRun(20, func() { pl.planBatch(reqs, new(batchScratch)) })
	hot := testing.AllocsPerRun(20, func() { pl.planBatch(reqs, warm) })
	t.Logf("planBatch of %d requests: cold %.0f allocs, warm %.0f", len(reqs), cold, hot)
	if cold > 16 {
		t.Errorf("cold planBatch: %.0f allocs, budget 16", cold)
	}
	if hot != 0 {
		t.Errorf("warm planBatch: %.0f allocs, want 0", hot)
	}
}
