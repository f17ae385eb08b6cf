package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

// Config sizes a Server. The zero value of every knob picks a sane
// default (see the field comments); Device must validate.
type Config struct {
	// Device is the per-shard racetrack configuration; every shard is
	// built identically from it.
	Device params.Config
	// Shards is the number of independent memory shards (default 1).
	Shards int
	// QueueDepth bounds each shard's admission queue (default 64).
	// A full queue rejects with ErrOverloaded / HTTP 429.
	QueueDepth int
	// CoalesceMax caps how many queued batchable requests one
	// execution window merges into a single ExecuteBatch (default 8;
	// 1 disables coalescing).
	CoalesceMax int
	// CoalesceWindow is how long a window holds the shard waiting for
	// more requests to merge once at least one is in hand (default 0:
	// merge only what is already queued, never wait).
	CoalesceWindow time.Duration
	// QuotaRate is each tenant's sustained request rate in
	// requests/second; 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is each tenant's token-bucket depth (default 1 when
	// quotas are on).
	QuotaBurst int
	// Telemetry attaches a per-shard recorder with a shard-labelled
	// hardware profiler, exposed on /v1/metrics.
	Telemetry bool
	// Sinks, when non-nil, supplies extra telemetry sinks per shard
	// (requires Telemetry); drained recorders flush them on Drain.
	Sinks func(shard int) []telemetry.Sink
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 8
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 1
	}
}

// job is one admitted unit of shard work: either a slice of batchable
// wire requests or a compile request. The worker publishes the outcome
// fields and then closes done; the handler reads them only after done.
type job struct {
	ctx     context.Context   // the request's; nil never cancels
	reqs    []memory.Request  // lowered batchable ops (compile == nil)
	one     [1]memory.Request // backs reqs for a single /v1/execute op
	compile *CompileRequest

	res  []memory.Result
	cres *CompileResponse
	cerr error // the compile's error, or ctx's when the job was dropped unrun
	// done is closed once the job is answered, after the worker counted
	// it Completed or Cancelled: a handler that has returned is counted.
	done chan struct{}
}

// Server owns a pool of memory shards behind the versioned HTTP API:
// per-tenant quotas, bounded admission queues with backpressure, a
// per-shard coalescing worker, and graceful drain. Create with
// NewServer, mount Handler, stop with Drain.
type Server struct {
	cfg    Config
	pool   *memory.Pool
	quotas *quotas

	recs  []*telemetry.Recorder
	profs []*profile.Profiler

	queues []chan *job

	executeLimit, batchLimit int64 // request body limits (bodyLimits)

	// admitMu orders admission against drain: handlers enqueue under
	// RLock after checking draining; Drain flips the flag under Lock,
	// so no handler is mid-enqueue when the queues close.
	admitMu  sync.RWMutex
	draining bool
	wg       sync.WaitGroup

	inflight          atomic.Int64 // admitted, response not yet written
	accepted          atomic.Uint64
	completed         atomic.Uint64
	cancelled         atomic.Uint64
	rejectedQuota     atomic.Uint64
	rejectedOverload  atomic.Uint64
	rejectedDraining  atomic.Uint64
	coalescedWindows  atomic.Uint64
	coalescedRequests atomic.Uint64
}

// newServer builds a server without starting its shard workers, so
// tests can exercise admission deterministically; NewServer is the
// public constructor.
func newServer(cfg Config) (*Server, error) {
	cfg.fill()
	pool, err := memory.NewPool(cfg.Device, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, pool: pool}
	s.executeLimit, s.batchLimit = bodyLimits(cfg.Device.Geometry.TrackWidth)
	if cfg.QuotaRate > 0 {
		s.quotas = newQuotas(cfg.QuotaRate, cfg.QuotaBurst)
	}
	if cfg.Telemetry {
		s.recs = make([]*telemetry.Recorder, cfg.Shards)
		s.profs = make([]*profile.Profiler, cfg.Shards)
		for i := 0; i < cfg.Shards; i++ {
			s.profs[i] = profile.New(cfg.Device, profile.WithLabel("shard", strconv.Itoa(i)))
			sinks := []telemetry.Sink{s.profs[i]}
			if cfg.Sinks != nil {
				sinks = append(sinks, cfg.Sinks(i)...)
			}
			s.recs[i] = telemetry.NewRecorder(cfg.Device, sinks...)
			pool.Shard(i).SetTelemetry(s.recs[i])
		}
	}
	s.queues = make([]chan *job, cfg.Shards)
	for i := range s.queues {
		s.queues[i] = make(chan *job, cfg.QueueDepth)
	}
	return s, nil
}

// start launches one coalescing worker per shard.
func (s *Server) start() {
	s.wg.Add(len(s.queues))
	for i := range s.queues {
		go s.worker(i)
	}
}

// NewServer builds the shard pool and starts the shard workers.
func NewServer(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// Pool exposes the shard pool (read-mostly: seeding rows in tests,
// inspecting health).
func (s *Server) Pool() *memory.Pool { return s.pool }

// Counters snapshots the service-level accounting.
func (s *Server) Counters() Counters {
	return Counters{
		Accepted:          s.accepted.Load(),
		Completed:         s.completed.Load(),
		Cancelled:         s.cancelled.Load(),
		RejectedQuota:     s.rejectedQuota.Load(),
		RejectedOverload:  s.rejectedOverload.Load(),
		RejectedDraining:  s.rejectedDraining.Load(),
		CoalescedWindows:  s.coalescedWindows.Load(),
		CoalescedRequests: s.coalescedRequests.Load(),
	}
}

// Inflight returns the admission gauge: requests admitted to a queue
// whose response has not been written yet. Zero when idle — every
// handler path releases its token.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Drain gracefully stops the server: new requests are rejected with
// ErrDraining, every already-accepted request completes and gets its
// response, the shard workers exit, and the telemetry recorders flush
// their sinks. Idempotent; returns after the drain is complete.
func (s *Server) Drain() {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.admitMu.Unlock()
	// No handler can be mid-enqueue now, so closing is safe; workers
	// drain the buffered jobs before exiting their range loops.
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	for _, rec := range s.recs {
		rec.Close()
	}
}

// shardFor routes a request: an explicit shard id wins, else the
// tenant hashes onto a shard so one tenant's traffic coalesces on one
// queue.
func (s *Server) shardFor(explicit *int, tenant string) (int, error) {
	if explicit != nil {
		if *explicit < 0 || *explicit >= len(s.queues) {
			return 0, fmt.Errorf("%w: shard %d outside pool of %d", ErrBadRequest, *explicit, len(s.queues))
		}
		return *explicit, nil
	}
	h := fnv.New32a()
	io.WriteString(h, tenant)
	return int(h.Sum32() % uint32(len(s.queues))), nil
}

// admit places a job on a shard queue, or rejects it: ErrDraining
// after Drain began, ErrOverloaded when the queue is full. On success
// the admission token (inflight gauge) is held until release is
// called — handlers defer it, so every path releases.
func (s *Server) admit(shard int, j *job) (release func(), err error) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	select {
	case s.queues[shard] <- j:
		s.accepted.Add(1)
		s.inflight.Add(1)
		return func() { s.inflight.Add(-1) }, nil
	default:
		s.rejectedOverload.Add(1)
		return nil, fmt.Errorf("%w: shard %d", ErrOverloaded, shard)
	}
}

// worker is shard i's executor: it drains the shard queue, merging
// runs of batchable jobs into coalescing windows (one ExecuteBatch per
// window, so disjoint clients' requests exploit the shard's DBC
// parallelism), and running compile jobs exclusively between windows.
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	q := s.queues[shard]
	mem := s.pool.Shard(shard)
	var pending *job
	for {
		j := pending
		pending = nil
		if j == nil {
			var ok bool
			if j, ok = <-q; !ok {
				return
			}
		}
		if j.compile != nil {
			if !s.dropCancelled(j) {
				s.runCompile(shard, mem, j)
			}
			continue
		}
		window := []*job{j}
		total := len(j.reqs)
		// take folds the next queued job into the window; it reports
		// false when collection must stop (queue closed, or a compile
		// job that must run exclusively right after this window).
		take := func(nj *job, ok bool) bool {
			if !ok {
				return false
			}
			if nj.compile != nil {
				pending = nj
				return false
			}
			window = append(window, nj)
			total += len(nj.reqs)
			return true
		}
		if s.cfg.CoalesceWindow > 0 {
			// Hold the shard open for late arrivals until the window
			// elapses or the window fills.
			t := time.NewTimer(s.cfg.CoalesceWindow)
		wait:
			for len(window) < s.cfg.CoalesceMax {
				select {
				case nj, ok := <-q:
					if !take(nj, ok) {
						break wait
					}
				case <-t.C:
					break wait
				}
			}
			t.Stop()
		} else {
			// Merge only what is already queued; never wait.
			for len(window) < s.cfg.CoalesceMax {
				select {
				case nj, ok := <-q:
					if !take(nj, ok) {
						goto run
					}
				default:
					goto run
				}
			}
		}
	run:
		s.runWindow(mem, window, total)
	}
}

// dropCancelled drops job j, unrun, when its client went away while it
// queued: it closes j.done with the context's error and counts the job
// Cancelled instead of Completed. It reports whether j was dropped.
func (s *Server) dropCancelled(j *job) bool {
	if j.ctx == nil || j.ctx.Err() == nil {
		return false
	}
	j.cerr = j.ctx.Err()
	s.cancelled.Add(1)
	close(j.done)
	return true
}

// runWindow concatenates the window's requests into one ExecuteBatch —
// program order within each job is preserved because ExecuteBatch
// keeps order inside overlapping footprints and jobs' own requests
// always land contiguously — then scatters the positional results back
// to their jobs. Jobs whose client went away are dropped first.
func (s *Server) runWindow(mem *memory.Memory, window []*job, total int) {
	live := window[:0]
	for _, j := range window {
		if s.dropCancelled(j) {
			total -= len(j.reqs)
			continue
		}
		live = append(live, j)
	}
	window = live
	if len(window) == 0 {
		return
	}
	if len(window) > 1 {
		s.coalescedWindows.Add(1)
		s.coalescedRequests.Add(uint64(total))
	}
	merged := make([]memory.Request, 0, total)
	for _, j := range window {
		merged = append(merged, j.reqs...)
	}
	results := mem.ExecuteBatch(merged)
	off := 0
	for _, j := range window {
		j.res = results[off : off+len(j.reqs)]
		off += len(j.reqs)
		s.completed.Add(1)
		close(j.done)
	}
}

// maxPlanCycles bounds the device cycles a compiled plan may be
// predicted to take (PlanStats.Cycles). The statement limit bounds
// compile time, not run time: 64 chained bs=512 divs are 66 lines but
// price 33.9M cycles, and Plan.Run held the shard for 7.6 s. Under this
// limit the slowest run measured, a 990-statement bs=512 add chain
// (1.02M cycles), takes about 0.2 s on a 2.1 GHz Xeon core; the
// example programs price under 1200 cycles.
const maxPlanCycles = 1 << 20

// runCompile compiles and executes a pimasm program on the shard,
// exclusively (no window shares the shard while a plan runs).
func (s *Server) runCompile(shard int, mem *memory.Memory, j *job) {
	defer func() {
		s.completed.Add(1)
		close(j.done)
	}()
	req := j.compile
	res, err := compile.Compile(req.Source, s.cfg.Device, compile.Options{Level: req.Level})
	if err != nil {
		// A program past the statement limit is too large however few
		// bytes it takes.
		bad := ErrBadRequest
		if compile.ClassOf(err) == compile.ClassTooLarge {
			bad = ErrTooLarge
		}
		j.cerr = fmt.Errorf("%w: %v", bad, err)
		return
	}
	if res.Stats.Cycles > maxPlanCycles {
		j.cerr = fmt.Errorf("%w: plan predicts %d device cycles, over the %d limit",
			ErrTooLarge, res.Stats.Cycles, maxPlanCycles)
		return
	}
	// Every shard memory records, telemetry or not: read its recorder.
	rec := mem.Recorder()
	cycles0, span0 := rec.Cycle(), rec.Makespan()
	if err := res.Plan.Run(mem); err != nil {
		j.cerr = err
		return
	}
	out := &CompileResponse{
		Shard:    shard,
		Cycles:   rec.Cycle() - cycles0,
		Makespan: rec.Makespan() - span0,
		Outputs:  make([]CompileOutput, 0, len(res.Outputs)),
	}
	for _, o := range res.Outputs {
		row, err := mem.ReadRow(o.Addr)
		if err != nil {
			j.cerr = err
			return
		}
		co := CompileOutput{Name: o.Name, Addr: wireAddr(o.Addr), Blocksize: o.Blocksize, Row: NewRowData(row)}
		if o.Blocksize > 0 {
			co.Values = pim.UnpackLanes(row, o.Blocksize)
		}
		out.Outputs = append(out.Outputs, co)
	}
	j.cres = out
}

// Handler returns the versioned API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathExecute, s.handleExecute)
	mux.HandleFunc(PathBatch, s.handleBatch)
	mux.HandleFunc(PathCompile, s.handleCompile)
	mux.HandleFunc(PathHealth, s.handleHealth)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	return mux
}

// Request body limits, one per endpoint. The largest legal request is a
// full-track write given as lane values at blocksize 1 — one lane per
// wire, each "0," or "1,", so 2 bytes per wire — on top of its fixed
// part: keys, tenant, shard, src/dst and at most TRD operand addresses,
// which requestOverhead bounds with room to spare (a five-field address
// of 19-digit ints is under 150 bytes). A row payload is smaller than
// the lanes at blocksize 1 (21 bytes per 64 wires), so at the default
// 512-wire track the largest /v1/execute body is 2×512 + overhead ≈
// 5 KiB. The limits scale with the configured track width, so a wider
// track's full-width writes stay legal. A batch may carry batchRequests
// of those, twice the 32-request batches of BENCH_parallel.json.
// Compile bodies carry program text, not rows, so their limit is fixed:
// 1 MiB is some 40k pimasm lines, 2000 times the largest example
// program.
const (
	laneBytesPerWire = 2
	requestOverhead  = 4 << 10
	batchRequests    = 64
	compileBodyLimit = 1 << 20
)

// bodyLimits returns the /v1/execute and /v1/batch body limits for a
// track of width wires.
func bodyLimits(width int) (execute, batch int64) {
	execute = int64(laneBytesPerWire*width + requestOverhead)
	return execute, batchRequests * execute
}

// decodeBody strictly decodes a JSON request body of at most limit
// bytes into dst; a longer body is ErrTooLarge.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any, limit int64) error {
	if r.Method != http.MethodPost {
		return fmt.Errorf("%w: %s requires POST", ErrBadRequest, r.URL.Path)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: %s body exceeds %d bytes", ErrTooLarge, r.URL.Path, tooLarge.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps err through the contract table onto the envelope.
func writeError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	ms := int(retryAfter / time.Millisecond)
	if retryAfter > 0 && ms == 0 {
		ms = 1
	}
	status, we := encodeError(err, ms)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, errorEnvelope{Error: we})
}

// gate runs the shared admission pipeline: tenant quota, shard
// routing. Returns the shard or writes the rejection.
func (s *Server) gate(w http.ResponseWriter, tenant string, explicit *int) (int, bool) {
	if ok, wait := s.quotas.take(tenant, time.Now()); !ok {
		s.rejectedQuota.Add(1)
		writeError(w, fmt.Errorf("%w: tenant %q", ErrQuota, tenant), wait)
		return 0, false
	}
	shard, err := s.shardFor(explicit, tenant)
	if err != nil {
		writeError(w, err, 0)
		return 0, false
	}
	return shard, true
}

// submit admits the job and waits for the worker's outcome; the
// admission token is released however the handler exits.
func (s *Server) submit(w http.ResponseWriter, shard int, j *job) (ok bool, release func()) {
	release, err := s.admit(shard, j)
	if err != nil {
		writeError(w, err, 25*time.Millisecond)
		return false, nil
	}
	return true, release
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if err := decodeBody(w, r, &req, s.executeLimit); err != nil {
		writeError(w, err, 0)
		return
	}
	shard, ok := s.gate(w, req.Tenant, req.Shard)
	if !ok {
		return
	}
	mreq, err := req.Request.toMemory(s.cfg.Device, pim.PackLanes)
	if err != nil {
		writeError(w, err, 0)
		return
	}
	j := &job{ctx: r.Context(), one: [1]memory.Request{mreq}, done: make(chan struct{})}
	j.reqs = j.one[:]
	ok, release := s.submit(w, shard, j)
	if !ok {
		return
	}
	defer release()
	<-j.done
	if j.cerr != nil {
		writeError(w, j.cerr, 0)
		return
	}
	if err := j.res[0].Err; err != nil {
		writeError(w, err, 0)
		return
	}
	resp := ExecuteResponse{Shard: shard, Row: NewRowData(j.res[0].Row)}
	if req.Blocksize > 0 {
		resp.Values = pim.UnpackLanes(j.res[0].Row, req.Blocksize)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req, s.batchLimit); err != nil {
		writeError(w, err, 0)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, fmt.Errorf("%w: empty batch", ErrBadRequest), 0)
		return
	}
	shard, ok := s.gate(w, req.Tenant, req.Shard)
	if !ok {
		return
	}
	mreqs := make([]memory.Request, len(req.Requests))
	for i, wr := range req.Requests {
		mr, err := wr.toMemory(s.cfg.Device, pim.PackLanes)
		if err != nil {
			writeError(w, fmt.Errorf("request %d: %w", i, err), 0)
			return
		}
		mreqs[i] = mr
	}
	j := &job{ctx: r.Context(), reqs: mreqs, done: make(chan struct{})}
	ok, release := s.submit(w, shard, j)
	if !ok {
		return
	}
	defer release()
	<-j.done
	if j.cerr != nil {
		writeError(w, j.cerr, 0)
		return
	}
	resp := BatchResponse{Shard: shard, Results: make([]BatchItem, len(j.res))}
	for i, res := range j.res {
		if res.Err != nil {
			_, we := encodeError(res.Err, 0)
			resp.Results[i].Error = &we
			continue
		}
		rd := NewRowData(res.Row)
		resp.Results[i].Row = &rd
		if bs := req.Requests[i].Blocksize; bs > 0 {
			resp.Results[i].Values = pim.UnpackLanes(res.Row, bs)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decodeBody(w, r, &req, compileBodyLimit); err != nil {
		writeError(w, err, 0)
		return
	}
	if req.Source == "" {
		writeError(w, fmt.Errorf("%w: empty source", ErrBadRequest), 0)
		return
	}
	shard, ok := s.gate(w, req.Tenant, req.Shard)
	if !ok {
		return
	}
	j := &job{ctx: r.Context(), compile: &req, done: make(chan struct{})}
	ok, release := s.submit(w, shard, j)
	if !ok {
		return
	}
	defer release()
	<-j.done
	if j.cerr != nil {
		writeError(w, j.cerr, 0)
		return
	}
	j.cres.Shard = shard
	writeJSON(w, http.StatusOK, j.cres)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.admitMu.RLock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.admitMu.RUnlock()
	g := s.cfg.Device.Geometry
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  status,
		Version: APIVersion,
		Shards:  len(s.queues),
		Geometry: GeometrySummary{
			Banks:            g.Banks,
			SubarraysPerBank: g.SubarraysPerBank,
			TilesPerSubarray: g.TilesPerSubarray,
			DBCsPerTile:      g.DBCsPerTile,
			PIMDBCsPerTile:   g.PIMDBCsPerTile,
			PIMTilesPerSub:   g.PIMTilesPerSub,
			TrackWidth:       g.TrackWidth,
			RowsPerDBC:       g.RowsPerDBC,
		},
		Counters: s.Counters(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c := s.Counters()
	for _, m := range []struct {
		name, help string
		val        uint64
	}{
		{"coruscantd_requests_accepted_total", "Requests admitted to a shard queue.", c.Accepted},
		{"coruscantd_requests_completed_total", "Admitted requests answered.", c.Completed},
		{"coruscantd_cancelled_total", "Admitted requests dropped unrun because their client went away.", c.Cancelled},
		{"coruscantd_rejected_quota_total", "Requests rejected by tenant quota.", c.RejectedQuota},
		{"coruscantd_rejected_overload_total", "Requests rejected by a full shard queue.", c.RejectedOverload},
		{"coruscantd_rejected_draining_total", "Requests rejected during graceful drain.", c.RejectedDraining},
		{"coruscantd_coalesced_windows_total", "Execution windows that merged more than one request.", c.CoalescedWindows},
		{"coruscantd_coalesced_requests_total", "Requests that rode a merged window.", c.CoalescedRequests},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.val)
	}
	fmt.Fprintf(w, "# HELP coruscantd_inflight Admitted requests not yet answered.\n# TYPE coruscantd_inflight gauge\ncoruscantd_inflight %d\n", s.Inflight())
	if len(s.profs) > 0 {
		profile.WriteManyPrometheus(w, s.profs...)
	}
}
