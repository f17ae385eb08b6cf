package memory

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// TestExecResultsOwnTheirRows pins the ownership contract of runPlan's
// operand scratch: operands are staged into rows owned by the executing
// shard and reused by its next exec, so a result must never alias them.
// Exec A and then exec B run on one PIM DBC with different operands;
// after B has staged its operands, A's returned row must still hold A's
// lane sums. Each pair runs through Execute, through one ExecuteBatch
// holding both, and through two ExecuteBatch calls, and again under NMR
// recovery with injected faults, where dispatchOp replays every attempt
// from the staged rows.
func TestExecResultsOwnTheirRows(t *testing.T) {
	run := map[string]func(m *Memory, a, b Request) (Result, Result){
		"execute": func(m *Memory, a, b Request) (Result, Result) {
			var ra, rb Result
			ra.Row, ra.Err = m.Execute(a.In, a.Operands, a.Dst)
			rb.Row, rb.Err = m.Execute(b.In, b.Operands, b.Dst)
			return ra, rb
		},
		"one-batch": func(m *Memory, a, b Request) (Result, Result) {
			res := m.ExecuteBatch([]Request{a, b})
			return res[0], res[1]
		},
		"two-batches": func(m *Memory, a, b Request) (Result, Result) {
			ra := m.ExecuteBatch([]Request{a})[0]
			return ra, m.ExecuteBatch([]Request{b})[0]
		},
	}
	for _, faulty := range []bool{false, true} {
		for _, mode := range []string{"execute", "one-batch", "two-batches"} {
			name := mode
			if faulty {
				name += "/nmr3-faults"
			}
			t.Run(name, func(t *testing.T) {
				m := testMemory(t)
				if faulty {
					m.SetFaultProfile(FaultProfile{TRProb: 2e-3, Seed: 21})
					if err := m.SetRecovery(resilient.DefaultPolicy()); err != nil {
						t.Fatal(err)
					}
				}
				g := m.Config().Geometry
				lanes := g.TrackWidth / 8
				exec := isa.Addr{DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
				// request writes k operands (two staged from a non-PIM DBC,
				// one read in place) with lane values seeded by tag and
				// returns the add plus its lane sums.
				request := func(tag, dstRow int) (Request, []uint64) {
					ops := []isa.Addr{
						{Subarray: 1, Tile: 1, Row: 2 * tag},
						{Subarray: 1, Tile: 1, Row: 2*tag + 1},
						{DBC: exec.DBC, Row: 20 + tag},
					}
					sums := make([]uint64, lanes)
					for i, a := range ops {
						vals := make([]uint64, lanes)
						for l := range vals {
							vals[l] = uint64(tag*53+i*29+l*7+1) % 80
							sums[l] = (sums[l] + vals[l]) % 256
						}
						if err := m.WriteRow(a, pim.MustPackLanes(vals, 8, g.TrackWidth)); err != nil {
							t.Fatal(err)
						}
					}
					return Request{
						In:       isa.Instruction{Op: isa.OpAdd, Src: exec, Blocksize: 8, Operands: len(ops)},
						Operands: ops,
						Dst:      isa.Addr{Subarray: 1, Tile: 2, Row: dstRow},
					}, sums
				}
				check := func(what string, got Result, want []uint64) {
					t.Helper()
					if got.Err != nil {
						t.Fatalf("%s: %v", what, got.Err)
					}
					row := pim.MustPackLanes(want, 8, g.TrackWidth)
					if !got.Row.Equal(row) {
						t.Fatalf("%s: returned lanes %v, want %v", what, pim.UnpackLanes(got.Row, 8), want)
					}
				}
				for pair := 0; pair < 6; pair++ {
					a, wantA := request(2*pair, 2*pair)
					b, wantB := request(2*pair+1, 2*pair+1)
					ra, rb := run[mode](m, a, b)
					check("exec A after exec B", ra, wantA)
					check("exec B", rb, wantB)
					if &ra.Row.Words[0] == &rb.Row.Words[0] {
						t.Fatal("exec A and exec B share a result row")
					}
				}
				if faulty && m.Health().TotalDetected == 0 {
					t.Fatal("no fault detected: the recovery retries never replayed the staged operands")
				}
			})
		}
	}
}
