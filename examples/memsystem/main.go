// Whole-memory view (Fig. 2): addresses in the bank/subarray/tile/DBC
// hierarchy, row-buffer data movement between clusters, and cpim
// instructions executing on addressed rows inside a PIM-enabled DBC —
// the complete §III-A/§III-E offload path on the functional memory,
// including the bank staging rule and bank-parallel batch execution.
package main

import (
	"errors"
	"fmt"
	"log"

	coruscant "repro"
	"repro/internal/isa"
)

func main() {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := coruscant.NewMemory(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := cfg.Geometry
	fmt.Printf("memory: %d banks x %d subarrays x %d tiles x %d DBCs (%d PIM-enabled)\n\n",
		g.Banks, g.SubarraysPerBank, g.TilesPerSubarray, g.DBCsPerTile, g.TotalPIMDBCs())

	// Application data lives in ordinary DBCs spread over the hierarchy.
	// vecC starts in the wrong bank on purpose.
	vecA := isa.Addr{Bank: 2, Subarray: 10, Tile: 4, DBC: 3, Row: 7}
	vecB := isa.Addr{Bank: 2, Subarray: 10, Tile: 4, DBC: 3, Row: 8}
	vecC := isa.Addr{Bank: 7, Subarray: 1, Tile: 9, DBC: 0, Row: 0}
	dst := isa.Addr{Bank: 2, Subarray: 10, Tile: 8, DBC: 1, Row: 12}

	store := func(a isa.Addr, vals []uint64) {
		row, err := coruscant.PackLanes(vals, 8, 64)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.WriteRow(a, row); err != nil {
			log.Fatal(err)
		}
	}
	store(vecA, []uint64{10, 20, 30, 40, 50, 60, 70, 80})
	store(vecB, []uint64{5, 5, 5, 5, 5, 5, 5, 5})
	store(vecC, []uint64{100, 100, 100, 100, 100, 100, 100, 100})

	// The OS reserved the PIM region (§III-E); the compiler picked the
	// PIM-enabled DBC of the data's subarray.
	pimDBC := isa.Addr{Bank: 2, Subarray: 10, Tile: 0, DBC: g.DBCsPerTile - 1}

	in := isa.Instruction{Op: isa.OpAdd, Src: pimDBC, Blocksize: 8, Operands: 3}
	word, err := in.Encode(g, cfg.TRD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cpim word: %#011x  (%v)\n", word, in)

	// Operands reach a PIM DBC over the bank-shared row buffer (§III-A),
	// so an operand in another bank is rejected before anything runs.
	_, err = m.Execute(isa.Decode(word), []isa.Addr{vecA, vecB, vecC}, dst)
	if !errors.Is(err, coruscant.ErrCrossDBC) {
		log.Fatalf("expected ErrCrossDBC, got %v", err)
	}
	fmt.Println("vecC in bank 7:", err)

	// Stage it into the executing bank with an explicit row copy, as the
	// memory controller would, then re-issue the instruction.
	staged := isa.Addr{Bank: 2, Subarray: 10, Tile: 4, DBC: 3, Row: 9}
	if err := m.CopyRow(vecC, staged); err != nil {
		log.Fatal(err)
	}
	result, err := m.Execute(isa.Decode(word), []isa.Addr{vecA, vecB, staged}, dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("A + B + C =", coruscant.UnpackLanes(result, 8))

	back, err := m.ReadRow(dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read back  =", coruscant.UnpackLanes(back, 8))

	// Bank-level parallelism: one batch of independent adds, one per
	// bank. Each bank is one lane of the batch's parallelism window, so
	// the batch costs its longest lane in simulated time; results and
	// telemetry totals are bit-identical to issuing the adds one by one.
	reqs := make([]coruscant.BatchRequest, 4)
	for bank := range reqs {
		p := isa.Addr{Bank: bank, Tile: 0, DBC: g.DBCsPerTile - 1}
		a, b := p, p
		a.Row, b.Row = 0, 1
		store(a, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
		store(b, []uint64{10 * uint64(bank), 1, 1, 1, 1, 1, 1, 1})
		d := p
		d.Row = 10
		reqs[bank] = coruscant.BatchRequest{
			In:       isa.Instruction{Op: isa.OpAdd, Src: p, Blocksize: 8, Operands: 2},
			Operands: []isa.Addr{a, b},
			Dst:      d,
		}
	}
	fmt.Printf("\nbatch of %d adds across banks:\n", len(reqs))
	for bank, res := range m.ExecuteBatch(reqs) {
		if res.Err != nil {
			log.Fatalf("bank %d: %v", bank, res.Err)
		}
		fmt.Printf("  bank %d: %v\n", bank, coruscant.UnpackLanes(res.Row, 8))
	}

	fmt.Printf("\nrow movement: %+v\n", m.Moves())
	fmt.Printf("device trace: %v\n", m.Stats())
	fmt.Printf("materialized DBCs: %d of %d (lazy)\n",
		m.MaterializedDBCs(),
		g.Banks*g.SubarraysPerBank*g.TilesPerSubarray*g.DBCsPerTile)
}
