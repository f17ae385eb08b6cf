package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

// engineBatch drives the batch engine in process, with no HTTP: one
// goroutine issues Memory.ExecuteBatch on a single memory with
// the default workers (GOMAXPROCS). Each batch holds 32 independent
// groups in 32 PIM-enabled DBCs (8 banks × 4 subarrays); a group writes
// three seeded operand rows, runs one cpim op and reads its result. The
// memory, pim, dbc and device layers do all the work, the service layer
// none.
var engineBatch = &workload{
	name:    "engine-batch",
	ops:     engineGroups * engineGroupReqs * 1600,
	slo:     2 * time.Millisecond,
	prepare: prepareEngine,
}

const (
	engineGroups    = 32
	engineGroupReqs = 5 // three operand writes, one cpim op, one read
	// engineDistinct is how many distinct batches a round cycles through:
	// each group meets every op of the rotation with every add width.
	engineDistinct = 20
)

var engineOps = []string{"add", "mult", "max", "xor", "fma"}

// engineOp is the op group g runs in distinct batch b, with its operand
// count. It is a fixed rotation, so every round has the same op mix and
// the simulated cost does not depend on the seed.
func engineOp(g, b int) (string, int) {
	switch op := engineOps[(g+b)%len(engineOps)]; op {
	case "add":
		return op, 2 + (g+b/len(engineOps))%4
	case "fma":
		return op, 3
	default:
		return op, 2
	}
}

// engineRows are group g's addresses: its PIM-enabled DBC and a data DBC
// of the same subarray holding operand rows 0-2 and result row 3.
func engineRows(g int, geo params.Geometry) (pimDBC isa.Addr, row func(int) isa.Addr) {
	bank, sub := g/4, g%4
	pimDBC = isa.Addr{Bank: bank, Subarray: sub, DBC: geo.DBCsPerTile - geo.PIMDBCsPerTile}
	return pimDBC, func(r int) isa.Addr { return isa.Addr{Bank: bank, Subarray: sub, Tile: 1, Row: r} }
}

type engineRound struct {
	cfg     params.Config
	mem     *memory.Memory
	tr      *tracer
	batches [engineDistinct][]memory.Request
	vals    [engineDistinct][engineGroups][3][]uint64
	n       int
	got     []dbc.Row // each executed batch's read results, engineGroups apiece
	calls   []call
	late    []time.Duration
}

func prepareEngine(e env) (round, error) {
	cfg := params.DefaultConfig()
	n := max(1, e.ops/(engineGroups*engineGroupReqs))
	r := &engineRound{cfg: cfg, tr: e.tr, n: n,
		got: make([]dbc.Row, n*engineGroups), calls: make([]call, n), late: make([]time.Duration, n)}
	rng := rand.New(rand.NewSource(e.rngSeed()))
	width := cfg.Geometry.TrackWidth
	for b := range r.batches {
		reqs := make([]memory.Request, 0, engineGroups*engineGroupReqs)
		for g := 0; g < engineGroups; g++ {
			pimDBC, row := engineRows(g, cfg.Geometry)
			for j := 0; j < 3; j++ {
				v := lanes(rng, width)
				packed, err := pim.PackLanes(v, laneBits, width)
				if err != nil {
					return nil, err
				}
				r.vals[b][g][j] = v
				reqs = append(reqs, memory.Request{Kind: memory.KindWrite, Dst: row(j), Row: packed})
			}
			op, k := engineOp(g, b)
			code, _ := isa.OpByName(op)
			operands := []isa.Addr{row(0), row(1), row(2), row(0), row(1)}[:k]
			reqs = append(reqs,
				memory.Request{In: isa.Instruction{Op: code, Src: pimDBC, Blocksize: laneBits, Operands: k}, Operands: operands, Dst: row(3)},
				memory.Request{Kind: memory.KindRead, Src: row(3)})
		}
		r.batches[b] = reqs
	}
	return r, nil
}

// build makes the memory and runs one batch, which materializes every
// DBC the batches touch and fills the engine's pools.
func (r *engineRound) build() error {
	mem, err := memory.New(r.cfg)
	if err != nil {
		return err
	}
	if r.tr != nil {
		mem.SetTelemetry(telemetry.NewRecorder(r.cfg, r.tr.sink(0, "memory.batch")))
	}
	for i, res := range mem.ExecuteBatch(r.batches[0]) {
		if res.Err != nil {
			return fmt.Errorf("priming request %d: %w", i, res.Err)
		}
	}
	r.mem = mem
	return nil
}

func (r *engineRound) run(rec *record) {
	prev := time.Now()
	for i := 0; i < r.n; i++ {
		t0 := time.Now()
		res := r.mem.ExecuteBatch(r.batches[i%engineDistinct])
		t1 := time.Now()
		var failed int32
		for _, x := range res {
			if x.Err != nil {
				failed++
			}
		}
		for g := 0; g < engineGroups; g++ {
			r.got[i*engineGroups+g] = res[(g+1)*engineGroupReqs-1].Row
		}
		r.calls[i] = call{lat: t1.Sub(t0), ops: int32(len(res)), failed: failed}
		r.late[i] = t0.Sub(prev)
		prev = t1
		r.tr.add(span{name: "memory.batch", tid: laneClient, id: int64(i + 1), start: t0, end: t1})
	}
	rec.calls, rec.late = r.calls, r.late
}

func (r *engineRound) sim() simSnap { return snapshot(r.mem) }

func (r *engineRound) close() {}

// verify compares each group's read-back row with the scalar per-lane
// result of its op on the values it wrote.
func (r *engineRound) verify(rec *record) {
	width := r.cfg.Geometry.TrackWidth
	var want [engineDistinct][engineGroups]dbc.Row
	for b := range want {
		for g := range want[b] {
			op, k := engineOp(g, b)
			row, err := pim.PackLanes(engineExpect(op, k, r.vals[b][g]), laneBits, width)
			if err != nil {
				failAll(rec)
				return
			}
			want[b][g] = row
		}
	}
	for i := 0; i < r.n; i++ {
		var bad int32
		for g := 0; g < engineGroups; g++ {
			if !r.got[i*engineGroups+g].Equal(want[i%engineDistinct][g]) {
				bad++
			}
		}
		rec.calls[i].failed = max(rec.calls[i].failed, bad)
	}
	if r.tr != nil {
		for i := 0; i < r.n; i++ {
			t := time.Now()
			r.mem.PlanBatch(r.batches[i%engineDistinct])
			r.tr.add(span{name: "memory.plan", tid: laneEngine, id: int64(i + 1), parent: "memory.batch", start: t, end: time.Now()})
		}
	}
}

// engineExpect is the scalar reference of one group: op over its
// operand rows [r0 r1 r2 r0 r1][:k], lane by lane, modulo 2^laneBits.
func engineExpect(op string, k int, v [3][]uint64) []uint64 {
	out := make([]uint64, len(v[0]))
	for l := range out {
		a, b, c := v[0][l], v[1][l], v[2][l]
		var x uint64
		switch op {
		case "add":
			for _, o := range []uint64{a, b, c, a, b}[:k] {
				x += o
			}
		case "mult":
			x = a * b
		case "max":
			x = max(a, b)
		case "xor":
			x = a ^ b
		case "fma":
			x = a*b + c
		}
		out[l] = x & (1<<laneBits - 1)
	}
	return out
}
