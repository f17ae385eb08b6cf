package main

import (
	"embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

// compileCorpus compiles at -O2 and runs, in process and on one
// goroutine, the three examples/pimasm programs plus eight random DAG
// programs, one program per operation. Input rows are rewritten from the
// seed before every run. The isa/compile passes and plan execution
// dominate; no other workload compiles this much.
var compileCorpus = &workload{
	name:    "compile-corpus",
	ops:     3300,
	slo:     2 * time.Millisecond,
	prepare: prepareCorpus,
}

// corpusFiles are frozen copies of examples/pimasm, so an edit to the
// examples does not change the benchmark.
//
//go:embed corpus/*.pimasm
var corpusFiles embed.FS

const (
	// corpusSeed fixes the shapes of the random programs: the corpus is
	// the same for every --seed, which varies only the input rows, so
	// the simulated cost does not depend on the seed.
	corpusSeed      = 2022
	corpusRandom    = 8
	corpusInputSets = 4
)

// program is one corpus program, parsed for the scalar reference.
type program struct {
	name   string
	src    string
	code   []pinstr
	loads  []isa.Addr // in program order
	stores []isa.Addr // in program order
}

// pinstr is one pimasm line.
type pinstr struct {
	dst     string // defined register ("" for a store)
	op      string // "load", "li", "store", or an operation
	args    []string
	addr    isa.Addr
	val     uint64
	bs, imm int
}

// corpus returns the examples and the random programs, in run order.
func corpus() ([]*program, error) {
	entries, err := corpusFiles.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var progs []*program
	for _, e := range entries {
		src, err := corpusFiles.ReadFile("corpus/" + e.Name())
		if err != nil {
			return nil, err
		}
		p, err := parseProgram(e.Name(), string(src))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	rng := rand.New(rand.NewSource(corpusSeed))
	for i := 0; i < corpusRandom; i++ {
		p, err := parseProgram(fmt.Sprintf("random-%d", i), genProgram(rng))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

var corpusOps = []string{"add", "mult", "xor", "max", "fma", "div", "shl"}

// genProgram writes a random DAG program: 3-5 loads over 1-3 banks,
// 8-14 operations, 2-4 stores, the shape compile's differential test
// proves. mult and fma inputs are first narrowed by a shr to half a
// lane, so their products fit the lane.
func genProgram(rng *rand.Rand) string {
	var b strings.Builder
	banks := []int{0, 1, 2}[:1+rng.Intn(3)]
	used := make(map[isa.Addr]bool)
	addr := func() string {
		for {
			a := isa.Addr{Bank: banks[rng.Intn(len(banks))], Subarray: rng.Intn(4), Tile: 1 + rng.Intn(3), DBC: rng.Intn(4), Row: rng.Intn(32)}
			if !used[a] {
				used[a] = true
				return isa.FormatAddr(a)
			}
		}
	}
	var regs []string
	def := func(expr string) string {
		name := "v" + strconv.Itoa(len(regs))
		fmt.Fprintf(&b, "%%%s = %s\n", name, expr)
		regs = append(regs, name)
		return name
	}
	pick := func() string { return "%" + regs[rng.Intn(len(regs))] }
	narrow := func() string { return "%" + def("shr "+pick()+" bs=8 imm=4") }
	for i := 3 + rng.Intn(3); i > 0; i-- {
		def("load " + addr())
	}
	for i := 8 + rng.Intn(7); i > 0; i-- {
		switch op := corpusOps[rng.Intn(len(corpusOps))]; op {
		case "add":
			args := make([]string, 2+rng.Intn(4))
			for j := range args {
				args[j] = pick()
			}
			def("add " + strings.Join(args, ", ") + " bs=8")
		case "mult":
			x, y := narrow(), narrow()
			def("mult " + x + ", " + y + " bs=8")
		case "fma":
			x, y := narrow(), narrow()
			def("fma " + x + ", " + y + ", " + pick() + " bs=8")
		case "shl":
			def(fmt.Sprintf("shl %s bs=8 imm=%d", pick(), rng.Intn(9)))
		default:
			def(op + " " + pick() + ", " + pick() + " bs=8")
		}
	}
	for i := 2 + rng.Intn(3); i > 0; i-- {
		fmt.Fprintf(&b, "store %s, %s\n", pick(), addr())
	}
	return b.String()
}

// parseProgram reads the pimasm subset the corpus uses into the form the
// scalar reference evaluates; it also lists the load and store rows.
func parseProgram(name, src string) (*program, error) {
	p := &program{name: name, src: src}
	for n, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(f) == 0 {
			continue
		}
		bad := func(err error) error { return fmt.Errorf("%s line %d: %v", name, n+1, err) }
		in := pinstr{bs: laneBits}
		var rest []string
		switch {
		case f[0] == "store" && len(f) == 3:
			a, err := isa.ParseAddr(f[2])
			if err != nil {
				return nil, bad(err)
			}
			in.op, in.args, in.addr = "store", []string{strings.TrimPrefix(f[1], "%")}, a
			p.stores = append(p.stores, a)
		case len(f) >= 4 && f[1] == "=" && f[2] == "load":
			a, err := isa.ParseAddr(f[3])
			if err != nil {
				return nil, bad(err)
			}
			in.dst, in.op, in.addr = strings.TrimPrefix(f[0], "%"), "load", a
			p.loads = append(p.loads, a)
		case len(f) >= 4 && f[1] == "=" && f[2] == "li":
			v, err := strconv.ParseUint(f[3], 0, 64)
			if err != nil {
				return nil, bad(err)
			}
			in.dst, in.op, in.val, rest = strings.TrimPrefix(f[0], "%"), "li", v, f[4:]
		case len(f) >= 4 && f[1] == "=":
			in.dst, in.op, rest = strings.TrimPrefix(f[0], "%"), f[2], f[3:]
		default:
			return nil, bad(fmt.Errorf("cannot read %q", line))
		}
		for _, t := range rest {
			var err error
			switch {
			case strings.HasPrefix(t, "%"):
				in.args = append(in.args, t[1:])
			case strings.HasPrefix(t, "bs="):
				in.bs, err = strconv.Atoi(t[3:])
			case strings.HasPrefix(t, "imm="):
				in.imm, err = strconv.Atoi(t[4:])
			default:
				err = fmt.Errorf("unexpected %q", t)
			}
			if err != nil {
				return nil, bad(err)
			}
		}
		p.code = append(p.code, in)
	}
	return p, nil
}

// eval runs the program on the scalar reference: inputs are the load
// rows in program order, the result the stored rows in program order.
func (p *program) eval(inputs []dbc.Row, width int) ([]dbc.Row, error) {
	regs := make(map[string]dbc.Row)
	var outs []dbc.Row
	next := 0
	for _, in := range p.code {
		switch in.op {
		case "load":
			regs[in.dst] = inputs[next]
			next++
		case "store":
			outs = append(outs, regs[in.args[0]])
		case "li":
			vals := make([]uint64, width/in.bs)
			for i := range vals {
				vals[i] = in.val
			}
			row, err := pim.PackLanes(vals, in.bs, width)
			if err != nil {
				return nil, err
			}
			regs[in.dst] = row
		default:
			args := make([][]uint64, len(in.args))
			for i, a := range in.args {
				row, ok := regs[a]
				if !ok {
					return nil, fmt.Errorf("%s: %%%s used before it is defined", p.name, a)
				}
				args[i] = pim.UnpackLanes(row, in.bs)
			}
			vals, err := laneOp(in.op, args, in.bs, in.imm)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			row, err := pim.PackLanes(vals, in.bs, width)
			if err != nil {
				return nil, err
			}
			regs[in.dst] = row
		}
	}
	return outs, nil
}

// arity is the operand count each operation of laneOp needs.
var arity = map[string]int{
	"add": 1, "and": 1, "or": 1, "xor": 1, "max": 1, "not": 1, "shl": 1, "shr": 1,
	"sub": 2, "mult": 2, "div": 2, "mod": 2, "fma": 3,
}

// laneOp is the scalar reference of one operation on unsigned bs-bit
// lanes, as compile's differential test defines it.
func laneOp(op string, args [][]uint64, bs, imm int) ([]uint64, error) {
	if need, ok := arity[op]; !ok || len(args) < need {
		return nil, fmt.Errorf("no reference for %s with %d operands", op, len(args))
	}
	mask := ^uint64(0)
	if bs < 64 {
		mask = 1<<uint(bs) - 1
	}
	out := make([]uint64, len(args[0]))
	for l := range out {
		a := args[0][l]
		v := a
		switch op {
		case "add":
			for _, x := range args[1:] {
				v += x[l]
			}
		case "sub":
			v = a - args[1][l]
		case "and":
			for _, x := range args[1:] {
				v &= x[l]
			}
		case "or":
			for _, x := range args[1:] {
				v |= x[l]
			}
		case "xor":
			for _, x := range args[1:] {
				v ^= x[l]
			}
		case "max":
			for _, x := range args[1:] {
				v = max(v, x[l])
			}
		case "not":
			v = ^a
		case "mult":
			v = a * args[1][l]
		case "fma":
			v = a*args[1][l] + args[2][l]
		case "div", "mod":
			q, r := mask, a
			if d := args[1][l]; d != 0 {
				q, r = a/d, a%d
			}
			v = q
			if op == "mod" {
				v = r
			}
		case "shl":
			v = a << uint(imm)
		case "shr":
			v = a >> uint(imm)
		}
		out[l] = v & mask
	}
	return out, nil
}

type corpusRound struct {
	cfg    params.Config
	mem    *memory.Memory
	tr     *tracer
	progs  []*program
	inputs [corpusInputSets][][]dbc.Row // [set][program][load]
	n      int
	got    []dbc.Row // stored rows of every run, at off[i]
	off    []int
	calls  []call
	late   []time.Duration
	plans  []*compile.Plan // traced rounds: each run's plan, to time planning afterwards
}

func prepareCorpus(e env) (round, error) {
	cfg := params.DefaultConfig()
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	r := &corpusRound{cfg: cfg, tr: e.tr, progs: progs, n: e.ops,
		off: make([]int, e.ops+1), calls: make([]call, e.ops), late: make([]time.Duration, e.ops)}
	rng := rand.New(rand.NewSource(e.rngSeed()))
	width := cfg.Geometry.TrackWidth
	for s := range r.inputs {
		r.inputs[s] = make([][]dbc.Row, len(progs))
		for j, p := range progs {
			for range p.loads {
				row := dbc.NewRow(width)
				for w := range row.Words {
					row.Words[w] = rng.Uint64()
				}
				row.MaskTail()
				r.inputs[s][j] = append(r.inputs[s][j], row)
			}
		}
	}
	for i := 0; i < r.n; i++ {
		r.off[i+1] = r.off[i] + len(progs[i%len(progs)].stores)
	}
	r.got = make([]dbc.Row, r.off[r.n])
	if e.tr != nil {
		r.plans = make([]*compile.Plan, r.n)
	}
	return r, nil
}

// build makes the memory and seeds every program's input rows, which
// materializes the DBCs the programs load from.
func (r *corpusRound) build() error {
	mem, err := memory.New(r.cfg)
	if err != nil {
		return err
	}
	if r.tr != nil {
		mem.SetTelemetry(telemetry.NewRecorder(r.cfg, r.tr.sink(0, "compile.run")))
	}
	for j, p := range r.progs {
		for k, a := range p.loads {
			if err := mem.WriteRow(a, r.inputs[0][j][k]); err != nil {
				return fmt.Errorf("%s: seed %s: %w", p.name, isa.FormatAddr(a), err)
			}
		}
	}
	r.mem = mem
	return nil
}

func (r *corpusRound) run(rec *record) {
	prev := time.Now()
	for i := 0; i < r.n; i++ {
		j, set := i%len(r.progs), (i/len(r.progs))%corpusInputSets
		p := r.progs[j]
		var failed int32
		for k, a := range p.loads {
			if err := r.mem.WriteRow(a, r.inputs[set][j][k]); err != nil {
				failed = 1
			}
		}
		var before simSnap
		if r.tr != nil {
			before = snapshot(r.mem)
		}
		t0 := time.Now()
		res, err := compile.Compile(p.src, r.cfg, compile.Options{Level: 2})
		t1 := time.Now()
		t2 := t1
		if err != nil {
			failed = 1
		} else {
			if err := res.Plan.Run(r.mem); err != nil {
				failed = 1
			}
			t2 = time.Now()
			if r.tr != nil {
				r.plans[i] = res.Plan
				r.countModel(res, snapshot(r.mem).since(before))
			}
		}
		for k, a := range p.stores {
			row, err := r.mem.ReadRow(a)
			if err != nil {
				failed = 1
			}
			r.got[r.off[i]+k] = row
		}
		t3 := time.Now()
		r.calls[i] = call{lat: t3.Sub(t0), ops: 1, failed: failed}
		r.late[i] = t0.Sub(prev)
		prev = t3
		if r.tr != nil {
			id := int64(i + 1)
			r.tr.add(span{name: "compile.op", tid: laneClient, id: id, start: t0, end: t3})
			r.tr.add(span{name: "compile.compile", tid: laneClient, id: id, parent: "compile.op", start: t0, end: t1})
			r.tr.add(span{name: "compile.run", tid: laneClient, id: id, parent: "compile.op", start: t1, end: t2})
		}
	}
	rec.calls, rec.late = r.calls, r.late
}

// countModel adds one run's compiler cost model and its measured cost.
func (r *corpusRound) countModel(res *compile.Result, d simSnap) {
	r.tr.count("compile.progs", 1)
	r.tr.count("compile.pred_moves", float64(res.Stats.CrossDBCMoves))
	r.tr.count("compile.meas_copies", float64(d.moves.RowCopies))
	r.tr.count("compile.pred_shifts", float64(res.Stats.PortShifts))
	r.tr.count("compile.meas_shifts", float64(d.dev.ShiftSteps))
	r.tr.count("compile.batches", float64(res.Stats.Batches))
	r.tr.count("compile.rows_recycled", float64(res.Stats.RowsRecycled))
	r.tr.count("compile.run_cycles", float64(d.cycles))
	r.tr.count("compile.run_makespan", float64(d.makespan))
}

func (r *corpusRound) sim() simSnap { return snapshot(r.mem) }

func (r *corpusRound) close() {}

// verify evaluates every program on every input set with the scalar
// reference and compares each stored row bit for bit.
func (r *corpusRound) verify(rec *record) {
	width := r.cfg.Geometry.TrackWidth
	want := make(map[[2]int][]dbc.Row)
	for i := 0; i < r.n; i++ {
		j, set := i%len(r.progs), (i/len(r.progs))%corpusInputSets
		key := [2]int{set, j}
		exp, ok := want[key]
		if !ok {
			var err error
			if exp, err = r.progs[j].eval(r.inputs[set][j], width); err != nil {
				exp = nil
			}
			want[key] = exp
		}
		if len(exp) != r.off[i+1]-r.off[i] {
			rec.calls[i].failed = 1
			continue
		}
		for k, w := range exp {
			if !r.got[r.off[i]+k].Equal(w) {
				rec.calls[i].failed = 1
			}
		}
	}
	for i, pl := range r.plans {
		if pl == nil {
			continue
		}
		for _, st := range pl.Steps {
			if st.Kind == compile.StepBatch {
				t := time.Now()
				r.mem.PlanBatch(st.Reqs)
				r.tr.add(span{name: "memory.plan", tid: laneEngine, id: int64(i + 1), parent: "compile.run", start: t, end: time.Now()})
			}
		}
	}
}
