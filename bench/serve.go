package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// laneBits is the blocksize of every generated lane value. Values are
// drawn below 2^(laneBits/2), so mult and fma operands always fit.
const laneBits = 8

// execOps are the cpim operations the serving workloads issue: the
// service.RunLoad mix.
var execOps = []string{"add", "mult", "and", "xor", "max", "or"}

// serveMixed is a closed loop of two clients, each pinned to its own
// shard of a two-shard server, sending RunLoad's mix: lane writes,
// single executes, three-op batches, reads, and a compiled fma+max
// kernel every 16th request. Nothing coalesces and nothing contends, so
// it measures clean serving throughput, dominated by the service layer.
var serveMixed = &workload{
	name:    "serve-mixed",
	ops:     24000,
	slo:     2 * time.Millisecond,
	prepare: serveShape{shards: 2, clients: 2, gen: genMixed}.prepare,
}

// serveShared is an open loop at a fixed 3000 requests/s over two
// connections to one shard, coruscantd's default. Eight tenants on eight
// disjoint banks, each bound to one connection, send row-I/O-heavy
// traffic: 50% reads, 30% lane writes, 20% single executes. Requests
// from the two connections queue and coalesce into shared windows.
var serveShared = &workload{
	name:    "serve-shared",
	ops:     6000,
	slo:     2 * time.Millisecond,
	prepare: serveShape{shards: 1, clients: 2, rate: 3000, gen: genShared}.prepare,
}

// serveShape is one serving workload: an in-process coruscantd with the
// daemon's flag defaults (telemetry on, default workers, queue depth 64,
// coalesce-max 8, the default 512-wire geometry) behind a real loopback
// listener, driven by one goroutine and one connection per client.
type serveShape struct {
	shards, clients int
	// rate is the open-loop arrival rate over all clients in requests
	// per second; 0 makes a closed loop.
	rate float64
	// gen generates client c's n requests and the rows seeded before
	// timing. Operations and addresses follow a fixed pattern, so the
	// simulated cost does not depend on the seed; the seed draws the
	// written values.
	gen func(c, n int, rng *rand.Rand, g params.Geometry) clientPlan
}

type clientPlan struct {
	shard int
	seeds []seedRow
	ops   []serveOp
}

type seedRow struct {
	addr service.Addr
	vals []uint64
}

// serveOp is one request: /v1/compile when source is set, /v1/batch
// when batch is set, else /v1/execute with reqs[0].
type serveOp struct {
	tenant string
	reqs   []service.Request
	batch  bool
	source string
}

// served is what the server answered to one request, decoded as the
// reply arrived so the round keeps only the rows.
type served struct {
	rows  []dbc.Row  // execute: 1; batch: one per item; compile: one per output
	addrs []isa.Addr // compile: where each output was stored
	err   bool
}

// bankRows addresses one tenant's bank: data rows in tile 1, result rows
// in tile 2, operations executing in the bank's first PIM-enabled DBC.
type bankRows struct {
	bank int
	g    params.Geometry
}

func (b bankRows) data(r int) *service.Addr   { return &service.Addr{Bank: b.bank, Tile: 1, Row: r} }
func (b bankRows) result(r int) *service.Addr { return &service.Addr{Bank: b.bank, Tile: 2, Row: r} }

func (b bankRows) exec(op string, x, y, dst *service.Addr) service.Request {
	pimDBC := &service.Addr{Bank: b.bank, DBC: b.g.DBCsPerTile - b.g.PIMDBCsPerTile}
	return service.Request{Op: op, Src: pimDBC, Blocksize: laneBits, Operands: []service.Addr{*x, *y}, Dst: dst}
}

func (b bankRows) write(rng *rand.Rand, dst *service.Addr) service.Request {
	return service.Request{Op: "write", Dst: dst, Blocksize: laneBits, Values: lanes(rng, b.g.TrackWidth)}
}

// seedData returns the four data rows of the bank, seeded before timing.
func (b bankRows) seedData(rng *rand.Rand) []seedRow {
	out := make([]seedRow, 4)
	for r := range out {
		out[r] = seedRow{addr: *b.data(r), vals: lanes(rng, b.g.TrackWidth)}
	}
	return out
}

// lanes draws one row of lane values below 2^(laneBits/2).
func lanes(rng *rand.Rand, width int) []uint64 {
	vals := make([]uint64, width/laneBits)
	for i := range vals {
		vals[i] = rng.Uint64() & (1<<(laneBits/2) - 1)
	}
	return vals
}

// kernel is RunLoad's compiled CNN-style kernel over a bank's data rows:
// y = max(fma(x, w, b), x).
func kernel(bank int) string {
	return fmt.Sprintf(`%%x = load b%[1]d.s0.t1.d0.r0
%%w = load b%[1]d.s0.t1.d0.r1
%%b = load b%[1]d.s0.t1.d0.r2
%%y = fma %%x, %%w, %%b bs=%[2]d
%%r = max %%y, %%x bs=%[2]d
store %%r, b%[1]d.s0.t2.d1.r0
store %%y, b%[1]d.s0.t2.d1.r1
`, bank, laneBits)
}

// genMixed is client c of serve-mixed: bank 0 of shard c.
func genMixed(c, n int, rng *rand.Rand, g params.Geometry) clientPlan {
	b := bankRows{bank: 0, g: g}
	p := clientPlan{shard: c, seeds: b.seedData(rng)}
	tenant, src := fmt.Sprintf("mixed-%d", c), kernel(b.bank)
	for i := 0; i < n; i++ {
		q := i / 4
		op := serveOp{tenant: tenant}
		switch {
		case i%16 == 0:
			op.source = src
		case i%4 == 0:
			op.reqs = []service.Request{b.write(rng, b.data(q%4))}
		case i%4 == 1:
			op.reqs = []service.Request{b.exec(execOps[q%6], b.data(q%4), b.data((q+1)%4), b.result(4+q%4))}
		case i%4 == 2:
			dst := b.result(8 + q%4)
			op.batch = true
			op.reqs = []service.Request{
				b.exec(execOps[(q+3)%6], b.data((q+2)%4), b.data((q+3)%4), dst),
				b.exec("add", dst, b.data(q%4), b.result(12)),
				{Op: "read", Src: b.result(12)},
			}
		default:
			op.reqs = []service.Request{{Op: "read", Src: b.data((q + 1) % 4)}}
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// genShared is connection c of serve-shared: tenants on banks c, c+2,
// c+4 and c+6 of the one shard, taking turns. Each tenant repeats the
// pattern R W R E R W R E R W: five reads, three writes, two executes.
func genShared(c, n int, rng *rand.Rand, g params.Geometry) clientPlan {
	var p clientPlan
	var tenants []string
	for j := 0; j < 4; j++ {
		b := bankRows{bank: c + 2*j, g: g}
		p.seeds = append(p.seeds, b.seedData(rng)...)
		tenants = append(tenants, fmt.Sprintf("shared-b%d", b.bank))
	}
	for k := 0; k < n; k++ {
		j, q := k%4, k/4
		b := bankRows{bank: c + 2*j, g: g}
		var req service.Request
		switch q % 10 {
		case 1, 5, 9:
			req = b.write(rng, b.data((q/10+q)%4))
		case 3, 7:
			req = b.exec(execOps[(q/10)%6], b.data(q%4), b.data((q/4+1)%4), b.result(4+(q/10)%4))
		default:
			src := b.data((q / 2) % 4)
			if (q/10)%2 == 1 {
				src = b.result(4 + (q/2)%4)
			}
			req = service.Request{Op: "read", Src: src}
		}
		p.ops = append(p.ops, serveOp{tenant: tenants[j], reqs: []service.Request{req}})
	}
	return p
}

type serveRound struct {
	shape   serveShape
	cfg     params.Config
	tr      *tracer
	clients []*serveClient
	srv     *service.Server
	ts      *httptest.Server
}

type serveClient struct {
	id        int
	plan      clientPlan
	transport *http.Transport
	api       *service.Client
	out       []served
	calls     []call
	late      []time.Duration
}

func (s serveShape) prepare(e env) (round, error) {
	cfg := params.DefaultConfig()
	r := &serveRound{shape: s, cfg: cfg, tr: e.tr}
	rng := rand.New(rand.NewSource(e.rngSeed()))
	for c := 0; c < s.clients; c++ {
		plan := s.gen(c, max(1, e.ops/s.clients), rng, cfg.Geometry)
		n := len(plan.ops)
		r.clients = append(r.clients, &serveClient{id: c, plan: plan,
			out: make([]served, n), calls: make([]call, n), late: make([]time.Duration, n)})
	}
	return r, nil
}

// build starts the server behind a loopback listener, seeds each
// client's rows and opens each client's connection.
func (r *serveRound) build() error {
	scfg := service.Config{Device: r.cfg, Shards: r.shape.shards, QueueDepth: 64, CoalesceMax: 8, Telemetry: true}
	if r.tr != nil {
		scfg.Sinks = func(shard int) []telemetry.Sink { return []telemetry.Sink{r.tr.sink(shard, "service.handler")} }
	}
	srv, err := service.NewServer(scfg)
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if r.tr != nil {
		h = r.tr.middleware(h)
	}
	r.srv, r.ts = srv, httptest.NewServer(h)
	for _, cl := range r.clients {
		for _, sr := range cl.plan.seeds {
			row, err := pim.PackLanes(sr.vals, laneBits, r.cfg.Geometry.TrackWidth)
			if err == nil {
				err = srv.Pool().Shard(cl.plan.shard).WriteRow(isaAddr(sr.addr), row)
			}
			if err != nil {
				r.close()
				return fmt.Errorf("seed row: %w", err)
			}
		}
		cl.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = cl.transport
		if r.tr != nil {
			rt = idTransport{base: cl.transport}
		}
		cl.api = service.NewClient(r.ts.URL, &http.Client{Transport: rt})
		// The server is ready once it answers on the client's connection.
		if _, err := cl.api.Health(context.Background()); err != nil {
			r.close()
			return fmt.Errorf("health: %w", err)
		}
	}
	return nil
}

func (r *serveRound) run(rec *record) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			r.drive(cl, start)
		}(cl)
	}
	wg.Wait()
	for _, cl := range r.clients {
		rec.calls = append(rec.calls, cl.calls...)
		rec.late = append(rec.late, cl.late...)
	}
}

// drive sends one client's requests: each as soon as the previous reply
// is in (closed loop), or at its due time (open loop), with latency
// counted from the due time so a stall also charges the requests it
// held back.
func (r *serveRound) drive(cl *serveClient, start time.Time) {
	var period, offset time.Duration
	if r.shape.rate > 0 {
		period = time.Duration(float64(len(r.clients)) / r.shape.rate * float64(time.Second))
		offset = period * time.Duration(cl.id) / time.Duration(len(r.clients))
	}
	shard := cl.plan.shard
	prev := start
	for k, op := range cl.plan.ops {
		var due time.Time
		if period > 0 {
			due = start.Add(offset + time.Duration(k)*period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		sent := time.Now()
		if period > 0 {
			cl.late[k] = sent.Sub(due)
		} else {
			cl.late[k] = sent.Sub(prev)
			due = sent
		}
		ctx := context.Background()
		id := int64(cl.id)<<32 | int64(k+1)
		if r.tr != nil {
			ctx = context.WithValue(ctx, idKey{}, id)
		}
		cl.out[k] = issue(ctx, cl.api, &shard, op)
		end := time.Now()
		prev = end
		cl.calls[k] = call{lat: end.Sub(due), ops: 1}
		if cl.out[k].err {
			cl.calls[k].failed = 1
		}
		r.tr.add(span{name: "service.client", tid: laneClient + cl.id, id: id, start: sent, end: end})
	}
}

// issue sends one request through the typed v1 client and decodes the
// rows it returns. Any error, rejections included, fails the request:
// the benchmark never retries.
func issue(ctx context.Context, api *service.Client, shard *int, op serveOp) served {
	var wire []service.RowData
	var addrs []isa.Addr
	switch {
	case op.source != "":
		resp, err := api.Compile(ctx, service.CompileRequest{Tenant: op.tenant, Shard: shard, Source: op.source, Level: 2})
		if err != nil {
			return served{err: true}
		}
		for _, o := range resp.Outputs {
			wire = append(wire, o.Row)
			addrs = append(addrs, isaAddr(o.Addr))
		}
	case op.batch:
		resp, err := api.Batch(ctx, service.BatchRequest{Tenant: op.tenant, Shard: shard, Requests: op.reqs})
		if err != nil {
			return served{err: true}
		}
		for _, it := range resp.Results {
			if it.Row == nil {
				return served{err: true}
			}
			wire = append(wire, *it.Row)
		}
	default:
		resp, err := api.Execute(ctx, service.ExecuteRequest{Tenant: op.tenant, Shard: shard, Request: op.reqs[0]})
		if err != nil {
			return served{err: true}
		}
		wire = []service.RowData{resp.Row}
	}
	out := served{rows: make([]dbc.Row, len(wire)), addrs: addrs}
	for i, rd := range wire {
		row, err := decodeRow(rd)
		if err != nil {
			return served{err: true}
		}
		out.rows[i] = row
	}
	return out
}

// decodeRow turns a wire row, hex words, back into a row.
func decodeRow(rd service.RowData) (dbc.Row, error) {
	row := dbc.Row{N: rd.N, Words: make([]uint64, len(rd.Words))}
	for i, s := range rd.Words {
		w, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
		if err != nil {
			return dbc.Row{}, err
		}
		row.Words[i] = w
	}
	return row, nil
}

func (r *serveRound) sim() simSnap {
	mems := make([]*memory.Memory, r.shape.shards)
	for i := range mems {
		mems[i] = r.srv.Pool().Shard(i)
	}
	return snapshot(mems...)
}

func (r *serveRound) close() {
	for _, cl := range r.clients {
		if cl.transport != nil {
			cl.transport.CloseIdleConnections()
		}
	}
	r.ts.Close()
	r.srv.Drain()
	c := r.srv.Counters()
	r.tr.count("service.accepted", float64(c.Accepted))
	r.tr.count("service.coalesced_windows", float64(c.CoalescedWindows))
	r.tr.count("service.coalesced_requests", float64(c.CoalescedRequests))
	r.tr.count("service.rejected", float64(c.RejectedQuota+c.RejectedOverload+c.RejectedDraining))
}

// verify replays every client's requests, in its order, on a serial
// mirror of its shard (a fresh memory.Memory with one worker) and
// compares every served row with the mirror's bit for bit. Tenants of
// different clients use disjoint banks, so their streams commute.
func (r *serveRound) verify(rec *record) {
	mirrors := make([]*memory.Memory, r.shape.shards)
	for i := range mirrors {
		m, err := memory.New(r.cfg)
		if err != nil {
			failAll(rec)
			return
		}
		m.SetWorkers(1)
		mirrors[i] = m
	}
	plans := make(map[string]*compile.Result)
	width := r.cfg.Geometry.TrackWidth
	base := 0
	for _, cl := range r.clients {
		m := mirrors[cl.plan.shard]
		for _, sr := range cl.plan.seeds {
			if err := m.WriteRow(isaAddr(sr.addr), pim.MustPackLanes(sr.vals, laneBits, width)); err != nil {
				failAll(rec)
				return
			}
		}
		for k, op := range cl.plan.ops {
			got := cl.out[k]
			ok := !got.err
			switch {
			case !ok:
				// A failed request changed nothing on the server's side;
				// the mirror skips it too.
			case op.source != "":
				ok = r.checkCompile(m, plans, cl.plan.shard, op.source, got)
			default:
				reqs, err := lower(op.reqs, width)
				ok = err == nil && sameResults(got.rows, m.ExecuteBatch(reqs))
				if r.tr != nil && err == nil {
					t := time.Now()
					m.PlanBatch(reqs)
					r.tr.add(span{name: "memory.plan", tid: laneEngine + cl.plan.shard, start: t, end: time.Now()})
				}
			}
			if !ok {
				rec.calls[base+k].failed = 1
			}
		}
		base += len(cl.plan.ops)
	}
}

// checkCompile compiles and runs the program on the mirror, as the
// server did, and compares every output the server returned.
func (r *serveRound) checkCompile(m *memory.Memory, plans map[string]*compile.Result, shard int, src string, got served) bool {
	key := strconv.Itoa(shard) + "\n" + src
	res := plans[key]
	if res == nil {
		var err error
		if res, err = compile.Compile(src, r.cfg, compile.Options{Level: 2}); err != nil {
			return false
		}
		plans[key] = res
	}
	if err := res.Plan.Run(m); err != nil || len(got.rows) != len(res.Outputs) {
		return false
	}
	for i, o := range res.Outputs {
		want, err := m.ReadRow(o.Addr)
		if err != nil || got.addrs[i] != o.Addr || !got.rows[i].Equal(want) {
			return false
		}
	}
	return true
}

func failAll(rec *record) {
	for i := range rec.calls {
		rec.calls[i].failed = rec.calls[i].ops
	}
}

// lower turns wire requests into the memory requests they mean, for the
// mirror.
func lower(reqs []service.Request, width int) ([]memory.Request, error) {
	out := make([]memory.Request, len(reqs))
	for i, q := range reqs {
		switch q.Op {
		case "write":
			row, err := pim.PackLanes(q.Values, q.Blocksize, width)
			if err != nil {
				return nil, err
			}
			out[i] = memory.Request{Kind: memory.KindWrite, Dst: isaAddr(*q.Dst), Row: row}
		case "read":
			out[i] = memory.Request{Kind: memory.KindRead, Src: isaAddr(*q.Src)}
		default:
			op, ok := isa.OpByName(q.Op)
			if !ok {
				return nil, fmt.Errorf("unknown op %q", q.Op)
			}
			operands := make([]isa.Addr, len(q.Operands))
			for j, a := range q.Operands {
				operands[j] = isaAddr(a)
			}
			out[i] = memory.Request{
				In:       isa.Instruction{Op: op, Src: isaAddr(*q.Src), Blocksize: q.Blocksize, Operands: len(operands)},
				Operands: operands, Dst: isaAddr(*q.Dst),
			}
		}
	}
	return out, nil
}

func sameResults(got []dbc.Row, want []memory.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if w.Err != nil || !got[i].Equal(w.Row) {
			return false
		}
	}
	return true
}

func isaAddr(a service.Addr) isa.Addr {
	return isa.Addr{Bank: a.Bank, Subarray: a.Subarray, Tile: a.Tile, DBC: a.DBC, Row: a.Row}
}
