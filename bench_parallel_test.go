// Bank-parallel batch benchmarks (recorded in BENCH_parallel.json):
// one ExecuteBatch of independent three-operand adds spread over the
// memory's banks and subarrays — disjoint DBC footprints, so each
// request is its own lane of the batch's parallelism window — against
// the request-at-a-time serial loop. Results are bit-identical; the
// batch path saves host work (pooled planning) and simulated time (the
// makespan is the longest lane, not the cycle sum).
package coruscant

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// batchFixture builds a memory with operands staged in 32 distinct PIM
// DBCs (8 banks x 4 subarrays) and the matching batch of independent
// adds, one per DBC.
func batchFixture(tb testing.TB) (*memory.Memory, []memory.Request) {
	tb.Helper()
	cfg := params.DefaultConfig()
	m, err := memory.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g := cfg.Geometry
	lanes := g.TrackWidth / 8
	var reqs []memory.Request
	for bank := 0; bank < 8 && bank < g.Banks; bank++ {
		for sub := 0; sub < 4 && sub < g.SubarraysPerBank; sub++ {
			pimDBC := isa.Addr{Bank: bank, Subarray: sub, Tile: 0, DBC: g.DBCsPerTile - 1}
			operands := make([]isa.Addr, 3)
			for r := range operands {
				vals := make([]uint64, lanes)
				for l := range vals {
					vals[l] = uint64((bank + 7*sub + 3*r + l) % 256)
				}
				row, err := pim.PackLanes(vals, 8, g.TrackWidth)
				if err != nil {
					tb.Fatal(err)
				}
				a := pimDBC
				a.Row = r
				if err := m.WriteRow(a, row); err != nil {
					tb.Fatal(err)
				}
				operands[r] = a
			}
			dst := pimDBC
			dst.Row = 10
			reqs = append(reqs, memory.Request{
				In:       isa.Instruction{Op: isa.OpAdd, Src: pimDBC, Blocksize: 8, Operands: 3},
				Operands: operands,
				Dst:      dst,
			})
		}
	}
	return m, reqs
}

// BenchmarkBatchSerial is the baseline: the same requests issued one
// Execute at a time, as a driver without the batch API would.
func BenchmarkBatchSerial(b *testing.B) {
	m, reqs := batchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchExecute runs the same requests as one ExecuteBatch.
func BenchmarkBatchExecute(b *testing.B) {
	m, reqs := batchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range m.ExecuteBatch(reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
