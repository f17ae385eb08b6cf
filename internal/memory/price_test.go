package memory

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// shiftSink counts, from a recorder's event stream, the shift steps
// each DBC takes.
type shiftSink struct {
	mu     sync.Mutex
	shifts map[string]int
}

func (s *shiftSink) Emit(e telemetry.Event) {
	if e.Op != telemetry.OpShift || e.Phase != telemetry.PhaseStep {
		return
	}
	s.mu.Lock()
	s.shifts[string(e.Src)]++
	s.mu.Unlock()
}

func (s *shiftSink) Close() error { return nil }

func (s *shiftSink) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.shifts)
}

// priceSubs is how many subarrays of bank 0 the random windows spread
// over: each has an executing PIM DBC, two data DBCs and one DBC of
// multiplier operands.
const priceSubs = 4

// narrowMask keeps, in every 64-bit word, the lanes a multiplier takes
// at blocksizes 8, 16 and 32 alike: the low nibble of each 32-bit half.
const narrowMask = 0x0000000F0000000F

// windowGen draws random ExecuteBatch windows of every request kind.
// Most of a request's rows sit in its own subarray, so a window's lanes
// are mostly disjoint; every fifth row comes from another subarray and
// merges lanes.
type windowGen struct {
	rng *rand.Rand
	g   params.Geometry
	trd params.TRD
}

// dataRow returns a row a request may read or write: a row of one of
// the subarray's data DBCs, or of its executing DBC.
func (w *windowGen) dataRow(sub int) isa.Addr {
	if w.rng.Intn(5) == 0 {
		sub = w.rng.Intn(priceSubs)
	}
	row := w.rng.Intn(w.g.RowsPerDBC)
	if w.rng.Intn(4) == 0 {
		return pimAddr(w.g, 0, sub, row)
	}
	return isa.Addr{Subarray: sub, Tile: 1, DBC: w.rng.Intn(2), Row: row}
}

// narrowRow returns one of the multiplier operand rows, which only the
// seeding window writes.
func (w *windowGen) narrowRow(sub int) isa.Addr {
	if w.rng.Intn(5) == 0 {
		sub = w.rng.Intn(priceSubs)
	}
	return isa.Addr{Subarray: sub, Tile: 2, Row: w.rng.Intn(4)}
}

// readRow returns a row a copy or read may take its data from: a data
// row, a multiplier operand row, or a row of bank 1.
func (w *windowGen) readRow(sub int) isa.Addr {
	switch w.rng.Intn(6) {
	case 0:
		return w.narrowRow(sub)
	case 1:
		return isa.Addr{Bank: 1, Subarray: sub, Tile: 1, Row: w.rng.Intn(w.g.RowsPerDBC)}
	}
	return w.dataRow(sub)
}

func (w *windowGen) row(mask uint64) dbc.Row {
	r := dbc.NewRow(w.g.TrackWidth)
	for i := range r.Words {
		r.Words[i] = w.rng.Uint64() & mask
	}
	r.MaskTail()
	return r
}

// seed returns the window that writes every multiplier operand row and
// a few data rows.
func (w *windowGen) seed() []Request {
	var reqs []Request
	for sub := 0; sub < priceSubs; sub++ {
		for r := 0; r < 4; r++ {
			reqs = append(reqs, Request{Kind: KindWrite, Dst: isa.Addr{Subarray: sub, Tile: 2, Row: r}, Row: w.row(narrowMask)})
			reqs = append(reqs, Request{Kind: KindWrite, Dst: w.dataRow(sub), Row: w.row(^uint64(0))})
		}
	}
	return reqs
}

var pimOps = []isa.OpCode{
	isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpNot,
	isa.OpAdd, isa.OpMult, isa.OpMax, isa.OpRelu, isa.OpVote,
	isa.OpDiv, isa.OpMod, isa.OpShl, isa.OpShr, isa.OpFma,
}

// exec returns a random cpim request on the subarray's executing DBC:
// any PIM opcode at blocksize 8, 16 or 32 and any operand count the TR
// window takes, and half the divs paired with a mod (a Rem row).
func (w *windowGen) exec(sub int) Request {
	op := pimOps[w.rng.Intn(len(pimOps))]
	bs := []int{8, 16, 32}[w.rng.Intn(3)]
	k, imm := 1, 0
	switch op {
	case isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpMax:
		k = 2 + w.rng.Intn(w.trd.MaxBulkOperands()-1)
	case isa.OpAdd:
		k = 2 + w.rng.Intn(min(5, w.trd.MaxAddOperands())-1)
	case isa.OpMult, isa.OpDiv, isa.OpMod:
		k = 2
	case isa.OpFma, isa.OpVote:
		k = 3
	case isa.OpShl, isa.OpShr:
		imm = w.rng.Intn(bs + 1)
	}
	operands := make([]isa.Addr, k)
	for i := range operands {
		if (op == isa.OpMult || op == isa.OpFma) && i < 2 {
			operands[i] = w.narrowRow(sub)
		} else {
			operands[i] = w.dataRow(sub)
		}
	}
	r := Request{
		In:       isa.Instruction{Op: op, Src: pimAddr(w.g, 0, sub, 0), Blocksize: bs, Operands: k, Imm: imm},
		Operands: operands,
		Dst:      w.dataRow(sub),
	}
	if op == isa.OpDiv && w.rng.Intn(2) == 0 {
		rem := w.dataRow(sub)
		for rem == r.Dst {
			rem = w.dataRow(sub)
		}
		r.Rem = &rem
	}
	return r
}

// window returns one to ten random requests: mostly cpim requests,
// then copies, writes and reads, and now and then a request
// ExecuteBatch rejects (a result outside the executing DBC's bank).
func (w *windowGen) window() []Request {
	reqs := make([]Request, 1+w.rng.Intn(10))
	for i := range reqs {
		sub := w.rng.Intn(priceSubs)
		switch w.rng.Intn(12) {
		case 0:
			reqs[i] = Request{Kind: KindCopy, Src: w.readRow(sub), Dst: w.dataRow(sub)}
		case 1:
			reqs[i] = Request{Kind: KindWrite, Dst: w.dataRow(sub), Row: w.row(^uint64(0))}
		case 2:
			reqs[i] = Request{Kind: KindRead, Src: w.readRow(sub)}
		case 3:
			reqs[i] = w.exec(sub)
			reqs[i].Dst.Bank = 1
		default:
			reqs[i] = w.exec(sub)
		}
	}
	return reqs
}

func priceCfg(trd params.TRD) params.Config {
	cfg := params.DefaultConfig()
	cfg.TRD = trd
	cfg.Geometry.TrackWidth = 64
	return cfg
}

// TestPricerMatchesRun is the pricer's differential test. Random
// ExecuteBatch windows run fault-free, one after another, on one
// memory, so every window after the first starts from heads the
// earlier ones moved. They cover every request kind: each PIM opcode
// at blocksizes 8, 16 and 32, paired div/mod, copies, writes, reads and
// rejected requests, over footprints that overlap and footprints that
// do not. Then every PIM opcode, at every operand count the window
// takes, runs alone in a window entered at head offsets −TRD−1, −TRD,
// 0, 1, TRD and TRD+1 on its executing DBC, put there by reads of that
// DBC's rows. A pricer fed the same windows must predict each window's
// cycles, makespan, row copies, shift steps and executed requests, and
// every DBC's shift steps, exactly.
func TestPricerMatchesRun(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := priceCfg(trd)
		sink := &shiftSink{shifts: make(map[string]int)}
		rec := telemetry.NewRecorder(cfg, sink)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTelemetry(rec)
		pr := NewPricer(cfg)
		gen := &windowGen{rng: rand.New(rand.NewSource(int64(trd))), g: cfg.Geometry, trd: trd}
		var parallel, merged, paired, rejected int
		check := func(name string, reqs []Request) {
			want := pr.Window(reqs)
			cycles0, span0, copies0, shifts0 := rec.Cycle(), rec.Makespan(), m.Moves().RowCopies, m.Stats().ShiftSteps
			got := Cost{}
			for j, res := range m.ExecuteBatch(reqs) {
				switch {
				case errors.Is(res.Err, ErrInvalidRequest):
					rejected++
				case res.Err != nil:
					t.Fatalf("%v %s: request %d failed: %v", trd, name, j, res.Err)
				case reqs[j].Kind == KindExec:
					got.Execs++
				}
				if reqs[j].Rem != nil {
					paired++
				}
			}
			got.Cycles, got.Makespan = int(rec.Cycle()-cycles0), int(rec.Makespan()-span0)
			got.RowCopies, got.Shifts = m.Moves().RowCopies-copies0, m.Stats().ShiftSteps-shifts0
			if got != want {
				t.Errorf("%v %s of %d requests: predicted %+v, measured %+v", trd, name, len(reqs), want, got)
			}
			if p, meas := pr.ShiftsByDBC(), sink.snapshot(); !maps.Equal(p, meas) {
				t.Errorf("%v %s: predicted shift steps per DBC %v, measured %v", trd, name, p, meas)
			}
			switch {
			case want.Makespan < want.Cycles:
				parallel++
			case len(reqs) > 1:
				merged++
			}
		}
		for i := 0; i < 60; i++ {
			reqs := gen.seed()
			if i > 0 {
				reqs = gen.window()
			}
			check(fmt.Sprintf("window %d", i), reqs)
		}
		if err := pr.Err(); err != nil {
			t.Fatal(err)
		}
		if parallel == 0 || merged == 0 || paired == 0 || rejected == 0 {
			t.Errorf("%v: windows with parallel lanes %d, with one lane %d; paired divs %d, rejected requests %d: want some of each",
				trd, parallel, merged, paired, rejected)
		}
		n := int(trd)
		for i, key := range pimKernels(trd, 8) {
			key.bs = []int{8, 16, 32}[i%3]
			sub := i % priceSubs
			exec := pimAddr(cfg.Geometry, 0, sub, 0)
			for _, entry := range []int{-n - 1, -n, 0, 1, n, n + 1} {
				name := fmt.Sprintf("%v bs=%d k=%d entered at %d", key.op, key.bs, key.k, entry)
				check(name+" (aligning)", headTo(t, m, exec, entry))
				if off := headOffset(m, exec); off != entry {
					t.Fatalf("%v %s: head at %d", trd, name, off)
				}
				check(name, []Request{gen.execAt(sub, key)})
			}
		}
		if err := pr.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// headOffset returns the head offset of the DBC holding a on the
// memory, or 0 while it is not materialized.
func headOffset(m *Memory, a isa.Addr) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shards[dbcBase(a)]
	if sh == nil {
		return 0
	}
	return sh.d.Offset()
}

// headTo returns the reads of rows of a's DBC that bring its head from
// where it stands on the memory to offset to: one read, or two where no
// single row's nearest-port alignment lands there.
func headTo(t *testing.T, m *Memory, a isa.Addr, to int) []Request {
	t.Helper()
	g, trd := m.Config().Geometry, m.Config().TRD
	at := func(r, off int) int {
		_, d := device.NearestPortAt(g.RowsPerDBC, trd, r, off)
		return off + d
	}
	read := func(rows ...int) []Request {
		reqs := make([]Request, len(rows))
		for i, r := range rows {
			a.Row = r
			reqs[i] = Request{Kind: KindRead, Src: a}
		}
		return reqs
	}
	from := headOffset(m, a)
	for r := 0; r < g.RowsPerDBC; r++ {
		if at(r, from) == to {
			return read(r)
		}
	}
	for r1 := 0; r1 < g.RowsPerDBC; r1++ {
		for r2 := 0; r2 < g.RowsPerDBC; r2++ {
			if at(r2, at(r1, from)) == to {
				return read(r1, r2)
			}
		}
	}
	t.Fatalf("no two reads bring the head from %d to %d", from, to)
	return nil
}

// execAt returns a cpim request of the key's kernel on the subarray's
// executing DBC whose operands and results all live in other DBCs, so
// the kernel enters at whatever offset the executing DBC's head holds.
// A div is paired with a mod.
func (w *windowGen) execAt(sub int, key kernelKey) Request {
	data := func() isa.Addr {
		return isa.Addr{Subarray: sub, Tile: 1, DBC: w.rng.Intn(2), Row: w.rng.Intn(w.g.RowsPerDBC)}
	}
	operands := make([]isa.Addr, key.k)
	for i := range operands {
		if (key.op == isa.OpMult || key.op == isa.OpFma) && i < 2 {
			operands[i] = isa.Addr{Subarray: sub, Tile: 2, Row: w.rng.Intn(4)}
		} else {
			operands[i] = data()
		}
	}
	r := Request{
		In:       isa.Instruction{Op: key.op, Src: pimAddr(w.g, 0, sub, 0), Blocksize: key.bs, Operands: key.k, Imm: key.imm},
		Operands: operands,
		Dst:      data(),
	}
	if key.op == isa.OpDiv {
		rem := data()
		for rem == r.Dst {
			rem = data()
		}
		r.Rem = &rem
	}
	return r
}

// TestPricerConcurrentColdTable prices the differential test's windows
// from 8 goroutines at once against an empty kernel cost table: every
// window must cost what a pricer on a warm table predicted. The race
// detector (make race-obs) checks the table's locking.
func TestPricerConcurrentColdTable(t *testing.T) {
	cfg := priceCfg(params.TRD7)
	gen := &windowGen{rng: rand.New(rand.NewSource(1)), g: cfg.Geometry, trd: cfg.TRD}
	windows := [][]Request{gen.seed()}
	for i := 0; i < 20; i++ {
		windows = append(windows, gen.window())
	}
	want := make([]Cost, len(windows))
	for i, w := range windows {
		want[i] = NewPricer(cfg).Window(w)
	}
	resetKernelCosts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range windows {
				j := (i + g) % len(windows)
				pr := NewPricer(cfg)
				if got := pr.Window(windows[j]); got != want[j] {
					t.Errorf("goroutine %d, window %d: predicted %+v, warm table %+v", g, j, got, want[j])
				}
				if err := pr.Err(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}
