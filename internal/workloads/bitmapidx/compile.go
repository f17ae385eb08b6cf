package bitmapidx

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/telemetry"
)

// ExecuteOnMemory compiles a boolean query into cpim instructions and
// runs them on the functional whole-memory model — the §III-E path where
// "cpim operations can be generated by the compiler": bitmaps are laid
// out row-by-row across the memory, every ≤TRD-ary node becomes one
// multi-operand instruction per row chunk, and the count is read back
// from the result rows. The returned count is bit-exact against the
// reference evaluator; tests assert both.
//
// The layout stripes each bitmap's chunks across the bank's subarrays
// (chunk c in subarray c mod S), with intermediate results in a scratch
// region of the same subarray; the memory's MoveStats then reflect the
// real staging traffic. Each pass over the chunks is submitted as one
// ExecuteBatch: chunk c executes on subarray c mod S's PIM DBC, so the
// per-chunk instructions have disjoint DBC footprints and become
// separate lanes of the batch's window — the §IV-B subarray-level
// parallelism — while the result stays bit-identical to serial
// execution.
func ExecuteOnMemory(m *memory.Memory, s *Store, e Expr) (int, error) {
	defer m.Recorder().Span(telemetry.Source("bitmapidx"), "query")()
	cfg := m.Config()
	width := cfg.Geometry.TrackWidth
	chunks := (s.Users + width - 1) / width
	nSub := cfg.Geometry.SubarraysPerBank
	if nSub > chunks {
		nSub = chunks
	}
	chunksPer := (chunks + nSub - 1) / nSub

	// Assign each leaf bitmap a storage region and load it. Region r's
	// chunk c lives in subarray c mod nSub at per-subarray slot
	// r*chunksPer + c/nSub, mapped over the non-PIM tiles.
	type region struct{ dbcIdx int }
	regions := map[string]region{}
	nextDBC := 0
	addrOf := func(r region, chunk int) isa.Addr {
		rows := cfg.Geometry.RowsPerDBC
		slot := r.dbcIdx*chunksPer + chunk/nSub
		return isa.Addr{
			Bank: 0, Subarray: chunk % nSub,
			Tile: 1 + slot/(rows*cfg.Geometry.DBCsPerTile),
			DBC:  (slot / rows) % cfg.Geometry.DBCsPerTile,
			Row:  slot % rows,
		}
	}
	// pimDBCFor returns the executing PIM DBC for a chunk: the PIM
	// tile's last DBC of the chunk's subarray.
	pimDBCFor := func(chunk int) isa.Addr {
		return isa.Addr{Bank: 0, Subarray: chunk % nSub, Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	}
	loadBitmap := func(name string, b Bitmap) (region, error) {
		if r, ok := regions[name]; ok {
			return r, nil
		}
		r := region{dbcIdx: nextDBC}
		nextDBC++
		for c := 0; c < chunks; c++ {
			row := dbc.NewRow(width)
			for w := 0; w < width; w++ {
				i := c*width + w
				if i < s.Users && b.Get(i) {
					row.Set(w, 1)
				}
			}
			if err := m.WriteRow(addrOf(r, c), row); err != nil {
				return region{}, err
			}
		}
		regions[name] = r
		return r, nil
	}

	// runPass submits one instruction per chunk as a single batch.
	runPass := func(build func(chunk int) memory.Request) error {
		reqs := make([]memory.Request, chunks)
		for c := 0; c < chunks; c++ {
			reqs[c] = build(c)
		}
		for _, res := range m.ExecuteBatch(reqs) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}

	// compile lowers an expression to a region holding its result.
	var compile func(Expr) (region, error)
	compile = func(e Expr) (region, error) {
		switch n := e.(type) {
		case leaf:
			b, err := n.get(s)
			if err != nil {
				return region{}, err
			}
			return loadBitmap(n.name, b)
		case negate:
			src, err := compile(n.arg)
			if err != nil {
				return region{}, err
			}
			out := region{dbcIdx: nextDBC}
			nextDBC++
			err = runPass(func(c int) memory.Request {
				return memory.Request{
					In:       isa.Instruction{Op: isa.OpNot, Src: pimDBCFor(c), Blocksize: 8, Operands: 1},
					Operands: []isa.Addr{addrOf(src, c)},
					Dst:      addrOf(out, c),
				}
			})
			if err != nil {
				return region{}, err
			}
			return out, nil
		case nary:
			if len(n.args) == 0 {
				return region{}, fmt.Errorf("bitmapidx: empty %s", n.op)
			}
			var op isa.OpCode
			switch n.op {
			case "and":
				op = isa.OpAnd
			case "or":
				op = isa.OpOr
			default:
				op = isa.OpXor
			}
			// Compile children, then fold ≤TRD regions per pass.
			regs := make([]region, len(n.args))
			for i, a := range n.args {
				r, err := compile(a)
				if err != nil {
					return region{}, err
				}
				regs[i] = r
			}
			acc := regs[0]
			rest := regs[1:]
			for len(rest) > 0 {
				take := min(int(cfg.TRD)-1, len(rest))
				out := region{dbcIdx: nextDBC}
				nextDBC++
				fold := rest[:take]
				err := runPass(func(c int) memory.Request {
					operands := []isa.Addr{addrOf(acc, c)}
					for _, r := range fold {
						operands = append(operands, addrOf(r, c))
					}
					return memory.Request{
						In:       isa.Instruction{Op: op, Src: pimDBCFor(c), Blocksize: 8, Operands: len(operands)},
						Operands: operands,
						Dst:      addrOf(out, c),
					}
				})
				if err != nil {
					return region{}, err
				}
				acc = out
				rest = rest[take:]
			}
			return acc, nil
		default:
			return region{}, fmt.Errorf("bitmapidx: unknown expression %T", e)
		}
	}

	res, err := compile(e)
	if err != nil {
		return 0, err
	}
	count := 0
	for c := 0; c < chunks; c++ {
		row, err := m.ReadRow(addrOf(res, c))
		if err != nil {
			return 0, err
		}
		limit := width
		if c == chunks-1 && s.Users%width != 0 {
			limit = s.Users % width
		}
		for w := 0; w < limit; w++ {
			count += int(row.Get(w))
		}
	}
	return count, nil
}
