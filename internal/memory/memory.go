// Package memory is the functional CORUSCANT main memory (Fig. 2): the
// full bank → subarray → tile → DBC hierarchy behind one address space,
// with row-buffer-mediated data movement between DBCs (§II-B's
// RowClone-style intra-memory copies) and in-place execution of cpim
// operations inside the PIM-enabled DBCs.
//
// DBCs materialize lazily, so the Table II geometry (a 1 GB memory of
// half a million DBCs) is addressable without allocating it: only
// touched clusters exist.
//
// One request path: every row operation is a Request — a cpim exec, a
// row-buffer copy, a write or a read. Execute, CopyRow, WriteRow and
// ReadRow are one-request plans; ExecuteBatch (batch.go) plans many and
// groups them by footprint. Either way a request is validated by
// planRequest before the memory's lock is taken, its shards are
// materialized by shardsInto, and runRequest runs it.
//
// Concurrency model: a Memory has one mutex, held for a whole request
// or a whole batch and by every setter and every reader of shard or
// health state, so it is safe for concurrent use and concurrent callers
// serialize. Host parallelism lives in a Pool's share-nothing shards,
// one goroutine each; a Memory's bank-level parallelism is modelled in
// simulated time (the window lanes behind Recorder.Makespan).
//
// Kernel band: a cpim kernel may overwrite rows of its PIM DBC beyond
// the TR window. It places its operands from wherever the head stands
// within TRD of rest, so any row from TRD rows left of the left port's
// rest row to TRD rows right of the right port's — rows portL−TRD to
// portR+TRD, 6 to 26 at 32 rows and TRD 7 — may change; every row
// outside that band comes back intact. Nothing rejects a write into
// the band: data kept there is lost to the next kernel on the DBC.
//
// One ledger: every device step and row movement is charged once, to
// the memory's always-on telemetry recorder. Stats, Moves and the
// recorder's Cycle, Makespan and EnergyPJ all read it under its own
// locks, never the memory's, so they agree and are safe while
// operations are in flight; replacing the recorder resets them together.
package memory

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrCrossDBC reports a cpim instruction whose operand or destination
// rows cannot be staged into the executing DBC: staging rides the
// bank's shared row buffer (§III-A), so every operand and the
// destination must live in the same bank as the PIM-enabled DBC named
// by the instruction. The error is returned by Execute and ExecuteBatch
// before any lock is taken or any row is moved; callers stage remote
// rows explicitly with CopyRow first. Test with errors.Is.
var ErrCrossDBC = errors.New("memory: operand outside the executing DBC's bank")

// ErrInvalidRequest marks every request the memory rejects at planning,
// before any lock is taken or any DBC is materialized — through
// Execute, CopyRow, WriteRow, ReadRow and ExecuteBatch alike: an
// address outside the geometry, an instruction Validate rejects, an
// executing DBC that is not PIM-enabled, an opcode that is not a PIM
// operation, an operand count that does not match, a write row of the
// wrong width. The
// rejection keeps its message and any more specific sentinel
// (ErrCrossDBC, params.ErrBadTRD). Test with errors.Is.
var ErrInvalidRequest = errors.New("memory: invalid request")

// invalidRequest marks a planning rejection with ErrInvalidRequest.
type invalidRequest struct{ error }

func (e invalidRequest) Unwrap() []error { return []error{e.error, ErrInvalidRequest} }

// shard is one materialized DBC. It is only touched with the memory's
// lock held.
type shard struct {
	base isa.Addr
	cluster

	// operands stages an exec's operand rows for dispatch (runPlan). The
	// rows are valid only while the exec that read them runs, and no
	// result ever aliases them.
	operands []dbc.Row
}

// cluster is the physical hardware behind a shard, replaced as a whole
// when quarantine remaps the shard to a spare.
type cluster struct {
	d  *dbc.DBC
	u  *pim.Unit           // non-nil iff the cluster is PIM-enabled
	ex *resilient.Executor // non-nil iff u != nil and recovery is enabled
}

// setRecorder points the shard's DBC (and unit) at rec.
func (sh *shard) setRecorder(rec *telemetry.Recorder) {
	if sh.u != nil {
		sh.u.SetTelemetry(rec, srcFor(sh.base))
		return
	}
	sh.d.SetTelemetry(rec, srcFor(sh.base))
}

// recorder returns the recorder currently attached to the shard's DBC.
func (sh *shard) recorder() *telemetry.Recorder { return sh.d.Recorder() }

// Memory is one CORUSCANT main memory, safe for concurrent use: one
// mutex covers a whole request or batch, so concurrent callers
// serialize. Host parallelism comes from a Pool's independent shards.
type Memory struct {
	planner // the configuration, and every check that reads only it

	// rec is always non-nil (a recorder with no sink by default). It is
	// stored under mu but loaded without it, so Stats, Moves and
	// Recorder never wait for a request or batch.
	rec atomic.Pointer[telemetry.Recorder]

	// mu guards the shard table, every shard's state, the attachment
	// state and the health ledger (health.go).
	mu     sync.Mutex
	shards map[isa.Addr]*shard
	prof   *FaultProfile // per-DBC fault injection; nil = fault-free
	pol    resilient.Policy
	health healthLedger
}

// MoveStats counts row-granularity data movement inside the memory. It
// is derived from the telemetry recorder's ledger (the
// OpRowRead/OpRowWrite/OpRowCopy instants).
type MoveStats struct {
	RowReads  int
	RowWrites int
	RowCopies int // row-buffer transfers between DBCs
}

// New returns an empty memory with the given configuration.
func New(cfg params.Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{
		planner: planner{cfg: cfg},
		shards:  make(map[isa.Addr]*shard),
	}
	m.rec.Store(telemetry.NewRecorder(cfg))
	m.health.init()
	return m, nil
}

// Config returns the memory's configuration.
func (m *Memory) Config() params.Config { return m.cfg }

// Stats returns the device-primitive counts of the memory's recorder
// (Recorder().Stats()): every step its DBCs charged since the recorder
// was attached, plus those of anything else sharing the recorder. It
// does not take the memory's lock, so it is safe to call while
// operations — including a batch — are in flight.
func (m *Memory) Stats() trace.Stats { return m.Recorder().Stats() }

// Moves returns the row-movement counters, read from the recorder's
// ledger, the one Stats reads. Events of an in-flight batch appear as
// its requests run.
func (m *Memory) Moves() MoveStats {
	met := m.Recorder().Metrics()
	return MoveStats{
		RowReads:  int(met.Count(telemetry.OpRowRead)),
		RowWrites: int(met.Count(telemetry.OpRowWrite)),
		RowCopies: int(met.Count(telemetry.OpRowCopy)),
	}
}

// Recorder returns the memory's telemetry recorder (never nil), without
// waiting for a request or batch in flight.
func (m *Memory) Recorder() *telemetry.Recorder { return m.rec.Load() }

// SetTelemetry replaces the memory's telemetry recorder, re-attaching
// every materialized DBC to it. Passing nil installs a fresh recorder
// with no sink, which keeps only the clock, timeline and ledger (the
// memory always records: Stats and Moves read the recorder's ledger),
// and so also resets the counters. It waits for a request or batch in
// flight, so a batch's steps and its window markers land on one
// recorder.
func (m *Memory) SetTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		rec = telemetry.NewRecorder(m.cfg)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec.Store(rec)
	for _, sh := range m.shards {
		sh.setRecorder(rec)
	}
}

// SetWorkers does nothing: ExecuteBatch always runs its groups on the
// calling goroutine, and batch parallelism lives in simulated time (the
// window lanes behind Recorder.Makespan).
//
// Deprecated: there is no worker pool to size. Callers that want host
// parallelism run share-nothing memories (a Pool's shards) on their own
// goroutines.
func (m *Memory) SetWorkers(int) {}

// srcFor names a DBC's telemetry source after its coordinates, e.g.
// "b0.s1.t2.d3" — one Chrome-trace lane per touched DBC.
func srcFor(base isa.Addr) telemetry.Source {
	return telemetry.Source(isa.DBCSource(base))
}

// dbcBase strips the row from an address, keying the containing DBC.
func dbcBase(a isa.Addr) isa.Addr {
	a.Row = 0
	return a
}

// planner is the half of a Memory that reads nothing but the immutable
// configuration: address and request validation, footprints, and the
// batch planner's footprint grouping. A Pricer embeds one too, so it
// plans with the code ExecuteBatch runs, without a memory.
type planner struct {
	cfg params.Config
}

// checkAddr validates an address against the geometry.
func (pl *planner) checkAddr(a isa.Addr) error {
	if !a.Valid(pl.cfg.Geometry) {
		return fmt.Errorf("memory: address %+v outside geometry", a)
	}
	return nil
}

// shardFor materializes (or returns) the shard of the DBC at base, a
// planned and so valid DBC base. For PIM-enabled locations the shard's
// DBC belongs to a PIM unit. m.mu held.
func (m *Memory) shardFor(base isa.Addr) (*shard, error) {
	if err := m.checkQuarantine(base); err != nil {
		return nil, err
	}
	if sh, ok := m.shards[base]; ok {
		return sh, nil
	}
	c, err := m.newCluster(base, base)
	if err != nil {
		return nil, err
	}
	sh := &shard{base: base, cluster: c}
	m.shards[base] = sh
	return sh, nil
}

// newCluster builds the physical cluster at phys that backs the logical
// DBC base — phys is base for a fresh shard and the spare for a remap.
// The cluster carries the fault profile's injector seeded at phys,
// charges its steps to the memory's recorder alone (no tracer) under
// base's telemetry source, and on a PIM-enabled location runs under a
// recovery executor when a policy is set. m.mu held.
func (m *Memory) newCluster(base, phys isa.Addr) (cluster, error) {
	rec, pol := m.rec.Load(), m.pol
	inj := m.injectorFor(phys)
	if !base.IsPIMEnabled(m.cfg.Geometry) {
		d, err := dbc.New(m.cfg.Geometry.TrackWidth, m.cfg.Geometry.RowsPerDBC, m.cfg.TRD)
		if err != nil {
			return cluster{}, err
		}
		d.SetFaultInjector(inj)
		d.SetTelemetry(rec, srcFor(base))
		return cluster{d: d}, nil
	}
	u, err := pim.NewUnit(m.cfg)
	if err != nil {
		return cluster{}, err
	}
	u.D.SetTracer(nil)
	u.D.SetFaultInjector(inj)
	u.SetTelemetry(rec, srcFor(base))
	c := cluster{d: u.D, u: u}
	if pol.Enabled() {
		if c.ex, err = resilient.NewExecutor(u, pol); err != nil {
			return cluster{}, err
		}
	}
	return c, nil
}

// shardsInto materializes the shards of the given DBC bases and appends
// them to dst, reusing its capacity. On error it returns dst emptied.
// m.mu held.
func (m *Memory) shardsInto(dst []*shard, bases []isa.Addr) ([]*shard, error) {
	for _, b := range bases {
		sh, err := m.shardFor(b)
		if err != nil {
			return dst[:0], err
		}
		dst = append(dst, sh)
	}
	return dst, nil
}

// sortBases deduplicates and orders DBC base addresses by their global
// linear index, the normal form of a footprint.
func (pl *planner) sortBases(bases []isa.Addr) []isa.Addr {
	g := pl.cfg.Geometry
	// Insertion sort: footprints are tiny (≤ operands+3), and sort.Slice
	// costs an allocation per call — visible on the batch planning path.
	for i := 1; i < len(bases); i++ {
		for j := i; j > 0 && bases[j].Linear(g) < bases[j-1].Linear(g); j-- {
			bases[j], bases[j-1] = bases[j-1], bases[j]
		}
	}
	out := bases[:0]
	for i, b := range bases {
		if i == 0 || b != bases[i-1] {
			out = append(out, b)
		}
	}
	return out
}

// writeRow stores a row through the shard's nearest access port.
func (sh *shard) writeRow(a isa.Addr, row dbc.Row) error {
	if err := sh.d.WriteRow(a.Row, row); err != nil {
		return err
	}
	sh.recorder().Move(sh.d.Source(), telemetry.OpRowWrite, row.N)
	return nil
}

// readRow loads the row at the address into a fresh row.
func (sh *shard) readRow(a isa.Addr) (dbc.Row, error) {
	row := dbc.NewRow(sh.d.Width())
	if err := sh.readRowInto(a, row); err != nil {
		return dbc.Row{}, err
	}
	return row, nil
}

// readRowInto loads the row at the address into out, a row of the
// DBC's width.
func (sh *shard) readRowInto(a isa.Addr, out dbc.Row) error {
	d := sh.d
	side, _, err := d.AlignNearest(a.Row)
	if err != nil {
		return err
	}
	sh.recorder().Move(d.Source(), telemetry.OpRowRead, d.Width())
	d.ReadPortInto(side, out)
	return nil
}

// operandRows returns n staging rows owned by the shard, reused across
// execs.
func (sh *shard) operandRows(n int) []dbc.Row {
	for len(sh.operands) < n {
		sh.operands = append(sh.operands, dbc.NewRow(sh.d.Width()))
	}
	return sh.operands[:n]
}

// WriteRow stores a row at the address through its DBC's nearest access
// port (shift-align plus port write, all traced): a one-request
// KindWrite plan, run as ExecuteBatch runs each request. A row of the
// wrong width or an address outside the geometry wraps
// ErrInvalidRequest and touches no DBC.
func (m *Memory) WriteRow(a isa.Addr, row dbc.Row) error {
	_, err := m.run(Request{Kind: KindWrite, Dst: a, Row: row})
	return err
}

// ReadRow loads the row at the address: a one-request KindRead plan.
func (m *Memory) ReadRow(a isa.Addr) (dbc.Row, error) {
	return m.run(Request{Kind: KindRead, Src: a})
}

// CopyRow moves a row between two locations over the shared row buffer
// (§II-B / [35]): an activate-read at the source and an activate-write
// at the destination, without crossing the memory bus. It is a
// one-request KindCopy plan.
func (m *Memory) CopyRow(src, dst isa.Addr) error {
	_, err := m.run(Request{Kind: KindCopy, Src: src, Dst: dst})
	return err
}

// copyRow runs a copy request over its shards: activate-read at src,
// activate-write at dst, and the row-buffer move instant. shards must
// cover both addresses.
func copyRow(shards []*shard, src, dst isa.Addr) (dbc.Row, error) {
	row, err := shardByBase(shards, dbcBase(src)).readRow(src)
	if err != nil {
		return dbc.Row{}, err
	}
	dstSh := shardByBase(shards, dbcBase(dst))
	if err := dstSh.writeRow(dst, row); err != nil {
		return dbc.Row{}, err
	}
	dstSh.recorder().Move(dstSh.d.Source(), telemetry.OpRowCopy, row.N)
	return row, nil
}

// shardByBase resolves a DBC base within a request's shards.
func shardByBase(shards []*shard, b isa.Addr) *shard {
	for _, sh := range shards {
		if sh.base == b {
			return sh
		}
	}
	return nil
}

// FaultProfile describes the §V-F fault model as a property of each
// DBC, and is the one way to inject faults into a Memory: every cluster
// gets its own injector, seeded from Seed and the cluster's linear
// address, so its fault stream depends only on the sequence of
// operations on that cluster — not on how operations on other clusters
// interleave. ExecuteBatch therefore keeps its group schedule and window
// lanes under fault injection and stays exactly reproducible for a
// fixed seed.
type FaultProfile struct {
	TRProb    float64 // per-sense probability of a ±1-level TR fault (§V-F)
	ShiftProb float64 // per-step probability of an over-/under-shift
	Seed      int64
}

// enabled reports whether the profile injects anything.
func (p FaultProfile) enabled() bool { return p.TRProb > 0 || p.ShiftProb > 0 }

// SetFaultProfile installs (or, with a zero profile, removes) per-DBC
// fault injection on every current and future cluster, replacing any
// previous profile.
func (m *Memory) SetFaultProfile(p FaultProfile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prof = nil
	if p.enabled() {
		m.prof = &p
	}
	for _, sh := range m.shards {
		sh.d.SetFaultInjector(m.injectorFor(sh.base))
	}
}

// injectorFor builds the injector the cluster at phys carries under the
// current fault profile: the profile's per-DBC injector, or nil when no
// profile is set. m.mu held.
func (m *Memory) injectorFor(phys isa.Addr) *device.FaultInjector {
	prof := m.prof
	if prof == nil {
		return nil
	}
	return device.NewFaultInjector(prof.TRProb, prof.ShiftProb, prof.Seed^phys.Linear(m.cfg.Geometry))
}

// SetRecovery installs a recovery policy (resilient.Policy) on every
// current and future PIM-enabled cluster: cpim executions are verified,
// retried and degraded per the policy, detected faults feed the health
// ledger, and clusters crossing Policy.QuarantineAfter are remapped to
// spares. A zero policy (or VerifyOff) disables recovery.
func (m *Memory) SetRecovery(p resilient.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Verify == resilient.VerifyNMR && p.NMR > int(m.cfg.TRD) {
		return fmt.Errorf("memory: NMR degree %d exceeds %v window: %w", p.NMR, m.cfg.TRD, params.ErrBadTRD)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pol = p
	for _, sh := range m.shards {
		if sh.u == nil {
			continue
		}
		sh.ex = nil
		if p.Enabled() {
			ex, err := resilient.NewExecutor(sh.u, p)
			if err != nil {
				return err
			}
			sh.ex = ex
		}
	}
	return nil
}

// Recovery returns the installed recovery policy (zero when disabled).
func (m *Memory) Recovery() resilient.Policy {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pol
}

// execPlan is a fully validated request: every address checked,
// the bank-staging rule enforced, and the footprint precomputed — all
// before the memory's lock is taken, so an invalid request fails
// without touching (or blocking) any shard. Planning reads only the
// immutable geometry; quarantine is checked at run time, in shardFor.
type execPlan struct {
	kind     RequestKind
	in       isa.Instruction
	operands []isa.Addr
	dst      isa.Addr
	rem      *isa.Addr  // a div's remainder destination; nil: none
	src      isa.Addr   // KindCopy: source row
	row      dbc.Row    // KindWrite: payload
	bases    []isa.Addr // footprint: sorted, deduplicated DBC bases
}

// planRequest validates one request of any kind and returns its plan.
// buf is an empty slice whose backing array the returned plan's
// footprint reuses: run and planBatch (and through it the Pricer) pass a
// pooled plan's previous bases array, so steady-state planning
// allocates nothing. Every rejection wraps ErrInvalidRequest.
func (pl *planner) planRequest(r Request, buf []isa.Addr) (p execPlan, err error) {
	defer func() {
		if err != nil {
			err = invalidRequest{err}
		}
	}()
	if r.Rem != nil && (r.Kind != KindExec || r.In.Op != isa.OpDiv) {
		return execPlan{}, errors.New("memory: only a div request takes a remainder destination")
	}
	switch r.Kind {
	case KindExec:
		return pl.planExecute(r.In, r.Operands, r.Dst, r.Rem, buf)
	case KindCopy:
		if err := pl.checkAddr(r.Src); err != nil {
			return execPlan{}, err
		}
		if err := pl.checkAddr(r.Dst); err != nil {
			return execPlan{}, err
		}
		return execPlan{
			kind: KindCopy, src: r.Src, dst: r.Dst,
			bases: pl.sortBases(append(buf, dbcBase(r.Src), dbcBase(r.Dst))),
		}, nil
	case KindWrite:
		if err := pl.checkAddr(r.Dst); err != nil {
			return execPlan{}, err
		}
		if r.Row.N != pl.cfg.Geometry.TrackWidth {
			return execPlan{}, fmt.Errorf("memory: row width %d, want %d", r.Row.N, pl.cfg.Geometry.TrackWidth)
		}
		return execPlan{kind: KindWrite, dst: r.Dst, row: r.Row, bases: append(buf, dbcBase(r.Dst))}, nil
	case KindRead:
		if err := pl.checkAddr(r.Src); err != nil {
			return execPlan{}, err
		}
		return execPlan{kind: KindRead, src: r.Src, bases: append(buf, dbcBase(r.Src))}, nil
	default:
		return execPlan{}, fmt.Errorf("memory: unknown request kind %d", r.Kind)
	}
}

// runRequest executes a validated plan of any kind over its shards. It
// is the body of every row operation: of Execute (runPlan), CopyRow
// (copyRow), WriteRow and ReadRow through run, and of each request of
// an ExecuteBatch group.
func (m *Memory) runRequest(p execPlan, shards []*shard) (dbc.Row, error) {
	switch p.kind {
	case KindCopy:
		return copyRow(shards, p.src, p.dst)
	case KindWrite:
		return p.row, shardByBase(shards, dbcBase(p.dst)).writeRow(p.dst, p.row)
	case KindRead:
		return shardByBase(shards, dbcBase(p.src)).readRow(p.src)
	default:
		return m.runPlan(p, shards)
	}
}

// planExecute validates the request upfront and returns its plan. rem,
// when not nil, is a div's remainder destination, checked like dst.
// The plan's footprint is built on buf's backing array.
func (pl *planner) planExecute(in isa.Instruction, operands []isa.Addr, dst isa.Addr, rem *isa.Addr, buf []isa.Addr) (execPlan, error) {
	if err := in.Validate(pl.cfg.Geometry, pl.cfg.TRD); err != nil {
		return execPlan{}, err
	}
	if !in.Src.IsPIMEnabled(pl.cfg.Geometry) {
		return execPlan{}, fmt.Errorf("memory: %+v is not a PIM-enabled DBC", in.Src)
	}
	if len(operands) != in.Operands {
		return execPlan{}, fmt.Errorf("memory: %v expects %d operands, got %d", in.Op, in.Operands, len(operands))
	}
	if !in.Op.IsPIM() {
		return execPlan{}, fmt.Errorf("memory: opcode %v is not a PIM operation", in.Op)
	}
	if err := pl.checkAddr(dst); err != nil {
		return execPlan{}, err
	}
	bases := append(buf, dbcBase(in.Src))
	for i, a := range operands {
		if err := pl.checkAddr(a); err != nil {
			return execPlan{}, fmt.Errorf("memory: operand %d: %w", i, err)
		}
		if a.Bank != in.Src.Bank {
			return execPlan{}, fmt.Errorf("memory: operand %d at %+v, executing DBC in bank %d: %w",
				i, a, in.Src.Bank, ErrCrossDBC)
		}
		bases = append(bases, dbcBase(a))
	}
	if dst.Bank != in.Src.Bank {
		return execPlan{}, fmt.Errorf("memory: destination %+v, executing DBC in bank %d: %w",
			dst, in.Src.Bank, ErrCrossDBC)
	}
	bases = append(bases, dbcBase(dst))
	p := execPlan{in: in, operands: operands, dst: dst}
	if rem != nil {
		if err := pl.checkAddr(*rem); err != nil {
			return execPlan{}, fmt.Errorf("memory: remainder: %w", err)
		}
		if *rem == dst {
			return execPlan{}, fmt.Errorf("memory: remainder destination %+v is the quotient's", dst)
		}
		if rem.Bank != in.Src.Bank {
			return execPlan{}, fmt.Errorf("memory: remainder destination %+v, executing DBC in bank %d: %w",
				*rem, in.Src.Bank, ErrCrossDBC)
		}
		p.rem = rem
		bases = append(bases, dbcBase(*rem))
	}
	p.bases = pl.sortBases(bases)
	return p, nil
}

// staged reports whether an exec on the DBC at exec reads its operand
// at a over the bank's row buffer: an operand outside the executing
// DBC is staged into it, one row copy.
func staged(a, exec isa.Addr) bool { return dbcBase(a) != dbcBase(exec) }

// execSpans names each cpim opcode's exec span, built once so the exec
// path formats no string per request. It covers every opcode
// planExecute admits.
var execSpans = func() (names [isa.OpFma + 1]string) {
	for op := range names {
		names[op] = "exec-" + isa.OpCode(op).String()
	}
	return names
}()

// runPlan executes a validated plan over its shards, in program order:
// stage operands, run the PIM op (through the recovery executor when
// one is installed), write the result, then, for a paired div, the
// remainder. shards covers the plan's footprint. The operands are
// staged into the executing shard's scratch rows; every PIM op returns
// a fresh row, so the result never aliases them.
func (m *Memory) runPlan(p execPlan, shards []*shard) (dbc.Row, error) {
	execSh := shardByBase(shards, dbcBase(p.in.Src))
	rec, src := execSh.recorder(), execSh.d.Source()
	rec.Begin(src, execSpans[p.in.Op])
	defer rec.End(src)
	rows := execSh.operandRows(len(p.operands))
	for i, a := range p.operands {
		if err := shardByBase(shards, dbcBase(a)).readRowInto(a, rows[i]); err != nil {
			return dbc.Row{}, fmt.Errorf("memory: operand %d: %w", i, err)
		}
		if staged(a, p.in.Src) {
			rec.Move(src, telemetry.OpRowCopy, rows[i].N)
		}
	}

	result, rem, err := m.dispatch(execSh, p.in, rows)
	if err != nil {
		return dbc.Row{}, err
	}
	if err := shardByBase(shards, dbcBase(p.dst)).writeRow(p.dst, result); err != nil {
		return dbc.Row{}, err
	}
	if p.rem == nil {
		return result, nil
	}
	if execSh.ex != nil {
		// The executor verifies the one row a run returns, so the
		// remainder gets a verified mod of its own over the same staged
		// operands: a recovered pair runs the kernels a div and a mod
		// request would.
		mod := p.in
		mod.Op = isa.OpMod
		if rem, _, err = m.dispatch(execSh, mod, rows); err != nil {
			return dbc.Row{}, err
		}
	}
	if err := shardByBase(shards, dbcBase(*p.rem)).writeRow(*p.rem, rem); err != nil {
		return dbc.Row{}, err
	}
	return result, nil
}

// dispatch runs the instruction's kernel on the executing shard over
// its staged operand rows (isa.Dispatch), returning the result and,
// for an unrecovered div, the remainder. With a recovery executor
// installed it re-runs the kernel per the policy, charges retry
// backoff to the executing DBC and reports detected faults to the
// health ledger (quarantines are processed by the caller at the end of
// the request or batch); a recovered run returns no remainder.
func (m *Memory) dispatch(sh *shard, in isa.Instruction, rows []dbc.Row) (res, rem dbc.Row, err error) {
	ex := sh.ex
	if ex == nil {
		return isa.Dispatch(sh.u, in, rows)
	}
	var out resilient.Outcome
	res, out, err = ex.Do(in.Op.String(), func() (dbc.Row, error) {
		q, _, err := isa.Dispatch(sh.u, in, rows)
		return q, err
	})
	if out.Detected > 0 {
		m.noteFaults(sh.base, out.Detected, ex.Policy.QuarantineAfter)
	}
	return res, dbc.Row{}, err
}

// Execute runs a cpim instruction whose operands live at memory
// addresses: the controller stages each operand into the PIM-enabled
// DBC named by in.Src over the bank's shared row buffer (§III-A: "the
// shared row buffer ... can be used to move data from non-PIM DBCs to
// PIM-enabled DBCs"), executes the operation there, and writes the
// result to dst.
//
// It is a one-request KindExec plan: validated in full — instruction
// encoding, address geometry, and the bank-staging rule — before the
// memory's lock is taken; a rejection wraps ErrInvalidRequest, and
// operands or destinations outside in.Src's bank also ErrCrossDBC
// (stage them with CopyRow first). The lock is then held for the whole
// operation.
func (m *Memory) Execute(in isa.Instruction, operands []isa.Addr, dst isa.Addr) (dbc.Row, error) {
	return m.run(Request{In: in, Operands: operands, Dst: dst})
}

// run takes one request down the path runBatch takes each request of a
// group: planRequest on the pooled batch scratch, then, under the
// memory's lock, shardsInto, runRequest and the quarantines the request
// scheduled. It emits no window markers, so the request's cycles extend
// the makespan serially.
func (m *Memory) run(r Request) (dbc.Row, error) {
	s := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(s)
	one := [1]Request{r}
	s.reset(one[:])
	p, err := m.planRequest(r, s.plans[0].bases)
	if err != nil {
		return dbc.Row{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	shards, err := m.shardsInto(s.shards[:0], p.bases)
	s.shards = shards[:0]
	if err != nil {
		return dbc.Row{}, err
	}
	row, err := m.runRequest(p, shards)
	m.processQuarantines()
	return row, err
}

// MaterializedDBCs reports how many clusters have been touched (for
// tests and capacity sanity checks).
func (m *Memory) MaterializedDBCs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shards)
}
