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
// Concurrency model: the memory is striped per DBC — each materialized
// cluster is a shard with its own lock and its own trace.Tracer, so
// operations on disjoint clusters never contend (the bank-level
// parallelism the DBC organization exists to provide). Multi-DBC
// operations (CopyRow, Execute's operand staging) take the involved
// shard locks in global address order, which makes deadlock impossible.
// ExecuteBatch (batch.go) runs whole request groups under the same
// striping, one group at a time on the calling goroutine. All accesses
// are traced; Stats() merges the per-shard tracers under their locks,
// so it is safe — and consistent — while operations are in flight. Every access is also recorded by the
// memory's telemetry recorder, row movement included, so MoveStats is a
// view over the unified telemetry counters rather than a bespoke tally.
package memory

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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

// shard is one materialized DBC with its lock and accounting. The
// physical cluster behind it is only touched with mu held.
type shard struct {
	mu   sync.Mutex
	base isa.Addr
	// tr is the shard's slice of the memory-wide device accounting;
	// trace.Tracer is plain counters, so sharing one across shards would
	// race. Stats() folds the shards together.
	tr *trace.Tracer
	cluster
}

// cluster is the physical hardware behind a shard, replaced as a whole
// when quarantine remaps the shard to a spare.
type cluster struct {
	d  *dbc.DBC
	u  *pim.Unit           // non-nil iff the cluster is PIM-enabled
	ex *resilient.Executor // non-nil iff u != nil and recovery is enabled
}

// setRecorder points the shard's DBC (and unit) at rec. Callers hold
// sh.mu.
func (sh *shard) setRecorder(rec *telemetry.Recorder) {
	if sh.u != nil {
		sh.u.SetTelemetry(rec, srcFor(sh.base))
		return
	}
	sh.d.SetTelemetry(rec, srcFor(sh.base))
}

// recorder returns the recorder currently attached to the shard's DBC.
func (sh *shard) recorder() *telemetry.Recorder { return sh.d.Recorder() }

// Memory is one CORUSCANT main memory, safe for concurrent use through
// per-DBC striped locking.
type Memory struct {
	cfg params.Config

	// tableMu guards the shard table only; shard state is behind each
	// shard's own lock.
	tableMu sync.RWMutex
	shards  map[isa.Addr]*shard

	// cfgMu guards the attachment state below.
	cfgMu sync.Mutex
	rec   *telemetry.Recorder // always non-nil: metrics-only by default
	prof  *FaultProfile       // per-DBC fault injection; nil = fault-free
	pol   resilient.Policy

	// health is the fault ledger behind quarantine and remapping
	// (health.go); it has its own lock.
	health healthLedger
}

// MoveStats counts row-granularity data movement inside the memory. It
// is derived from the telemetry recorder's unified counters (the
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
		cfg:    cfg,
		shards: make(map[isa.Addr]*shard),
		rec:    telemetry.NewRecorder(cfg),
	}
	m.health.init()
	return m, nil
}

// Config returns the memory's configuration.
func (m *Memory) Config() params.Config { return m.cfg }

// snapshotShards returns the materialized shards in address order.
func (m *Memory) snapshotShards() []*shard {
	m.tableMu.RLock()
	out := make([]*shard, 0, len(m.shards))
	for _, sh := range m.shards {
		out = append(out, sh)
	}
	m.tableMu.RUnlock()
	g := m.cfg.Geometry
	sort.Slice(out, func(i, j int) bool {
		return out[i].base.Linear(g) < out[j].base.Linear(g)
	})
	return out
}

// Stats returns the accumulated device-primitive counts of every DBC.
// It folds the per-shard tracers under their locks, one shard at a
// time, so it is safe to call while operations — including a batch —
// are in flight and never blocks the whole memory.
func (m *Memory) Stats() trace.Stats {
	var total trace.Stats
	for _, sh := range m.snapshotShards() {
		sh.mu.Lock()
		s := sh.tr.Stats()
		sh.mu.Unlock()
		total.Add(s)
	}
	return total
}

// Moves returns the row-movement counters, derived from the unified
// telemetry metrics. Events of an in-flight batch appear as its
// requests run.
func (m *Memory) Moves() MoveStats {
	met := m.Recorder().Metrics()
	return MoveStats{
		RowReads:  int(met.Count(telemetry.OpRowRead)),
		RowWrites: int(met.Count(telemetry.OpRowWrite)),
		RowCopies: int(met.Count(telemetry.OpRowCopy)),
	}
}

// Recorder returns the memory's telemetry recorder (never nil).
func (m *Memory) Recorder() *telemetry.Recorder {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	return m.rec
}

// SetTelemetry replaces the memory's telemetry recorder, re-attaching
// every materialized DBC to it. Passing nil installs a fresh
// metrics-only recorder (the memory always records: MoveStats derives
// from the recorder's counters), which also resets the counters.
//
// Deprecated: new code should attach the recorder at construction with
// the façade's WithTelemetry option; the setter remains for call sites
// that attach or swap telemetry after construction.
func (m *Memory) SetTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		rec = telemetry.NewRecorder(m.cfg)
	}
	m.cfgMu.Lock()
	m.rec = rec
	m.cfgMu.Unlock()
	for _, sh := range m.snapshotShards() {
		sh.mu.Lock()
		sh.setRecorder(rec)
		sh.mu.Unlock()
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

// checkAddr validates an address against the geometry.
func (m *Memory) checkAddr(a isa.Addr) error {
	if !a.Valid(m.cfg.Geometry) {
		return fmt.Errorf("memory: address %+v outside geometry", a)
	}
	return nil
}

// shardFor materializes (or returns) the shard holding the address. For
// PIM-enabled locations the shard's DBC belongs to a PIM unit.
func (m *Memory) shardFor(a isa.Addr) (*shard, error) {
	if err := m.checkAddr(a); err != nil {
		return nil, err
	}
	base := dbcBase(a)
	if err := m.checkQuarantine(base); err != nil {
		return nil, err
	}
	m.tableMu.RLock()
	sh, ok := m.shards[base]
	m.tableMu.RUnlock()
	if ok {
		return sh, nil
	}

	m.tableMu.Lock()
	defer m.tableMu.Unlock()
	if sh, ok := m.shards[base]; ok {
		return sh, nil
	}
	tr := &trace.Tracer{}
	c, err := m.newCluster(base, base, tr)
	if err != nil {
		return nil, err
	}
	sh = &shard{base: base, tr: tr, cluster: c}
	m.shards[base] = sh
	return sh, nil
}

// newCluster builds the physical cluster at phys that backs the logical
// DBC base — phys is base for a fresh shard and the spare for a remap.
// The cluster accounts into tr, carries the fault profile's injector
// seeded at phys, records under base's telemetry source, and on a
// PIM-enabled location runs under a recovery executor when a policy is
// set. It reads the attachment state under cfgMu, so callers must not
// hold a shard lock.
func (m *Memory) newCluster(base, phys isa.Addr, tr *trace.Tracer) (cluster, error) {
	m.cfgMu.Lock()
	rec, pol := m.rec, m.pol
	m.cfgMu.Unlock()
	inj := m.injectorFor(phys)
	if !base.IsPIMEnabled(m.cfg.Geometry) {
		d, err := dbc.New(m.cfg.Geometry.TrackWidth, m.cfg.Geometry.RowsPerDBC, m.cfg.TRD)
		if err != nil {
			return cluster{}, err
		}
		d.SetTracer(tr)
		d.SetFaultInjector(inj)
		d.SetTelemetry(rec, srcFor(base))
		return cluster{d: d}, nil
	}
	u, err := pim.NewUnit(m.cfg)
	if err != nil {
		return cluster{}, err
	}
	u.SetTracer(tr)
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

// lockOrdered materializes and locks the shards of the given DBC bases
// in global address order (the deadlock-freedom invariant: every
// multi-shard operation acquires in the same order). bases must be
// duplicate-free; sortBases provides that. The returned unlock releases
// in reverse order.
func (m *Memory) lockOrdered(bases []isa.Addr) ([]*shard, func(), error) {
	shards, err := m.lockInto(make([]*shard, 0, len(bases)), bases)
	if err != nil {
		return nil, nil, err
	}
	return shards, func() { unlockShards(shards) }, nil
}

// lockInto is lockOrdered on a caller-owned buffer: shards are appended
// to dst (reusing its capacity) and locked in order, with no unlock
// closure allocated — the batch fast path's per-group locking primitive.
// On error nothing is locked. Callers release with unlockShards.
func (m *Memory) lockInto(dst []*shard, bases []isa.Addr) ([]*shard, error) {
	for _, b := range bases {
		sh, err := m.shardFor(b)
		if err != nil {
			return dst[:0], err
		}
		dst = append(dst, sh)
	}
	for _, sh := range dst {
		//coruscantvet:ignore lockorder -- the sanctioned helper itself: bases are sorted by Linear, so the pairwise order is global
		sh.mu.Lock()
	}
	return dst, nil
}

// unlockShards releases a lockInto set in reverse acquisition order.
func unlockShards(shards []*shard) {
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].mu.Unlock()
	}
}

// sortBases deduplicates and orders DBC base addresses by their global
// linear index — the lock acquisition order.
func (m *Memory) sortBases(bases []isa.Addr) []isa.Addr {
	g := m.cfg.Geometry
	// Insertion sort: lock sets are tiny (≤ operands+2), and sort.Slice
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

// writeRowOn stores a row through the shard's nearest access port;
// sh.mu held.
func (sh *shard) writeRow(a isa.Addr, row dbc.Row) error {
	d := sh.d
	if row.N != d.Width() {
		return fmt.Errorf("memory: row width %d, want %d", row.N, d.Width())
	}
	side, _, err := d.AlignNearest(a.Row)
	if err != nil {
		return err
	}
	d.WritePort(side, row)
	sh.recorder().Move(d.Source(), telemetry.OpRowWrite, row.N)
	return nil
}

// readRow loads the row at the address; sh.mu held.
func (sh *shard) readRow(a isa.Addr) (dbc.Row, error) {
	d := sh.d
	side, _, err := d.AlignNearest(a.Row)
	if err != nil {
		return dbc.Row{}, err
	}
	sh.recorder().Move(d.Source(), telemetry.OpRowRead, d.Width())
	return d.ReadPort(side), nil
}

// WriteRow stores a row at the address through its DBC's nearest access
// port (shift-align plus port write, all traced).
func (m *Memory) WriteRow(a isa.Addr, row dbc.Row) error {
	sh, err := m.shardFor(a)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.writeRow(a, row)
}

// ReadRow loads the row at the address.
func (m *Memory) ReadRow(a isa.Addr) (dbc.Row, error) {
	sh, err := m.shardFor(a)
	if err != nil {
		return dbc.Row{}, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.readRow(a)
}

// CopyRow moves a row between two locations over the shared row buffer
// (§II-B / [35]): an activate-read at the source and an activate-write
// at the destination, without crossing the memory bus. The two shard
// locks are taken in address order.
func (m *Memory) CopyRow(src, dst isa.Addr) error {
	if err := m.checkAddr(src); err != nil {
		return err
	}
	if err := m.checkAddr(dst); err != nil {
		return err
	}
	bases := m.sortBases([]isa.Addr{dbcBase(src), dbcBase(dst)})
	shards, unlock, err := m.lockOrdered(bases)
	if err != nil {
		return err
	}
	defer unlock()
	_, err = copyLocked(shards, src, dst)
	return err
}

// copyLocked is CopyRow's body with the shard locks already held:
// activate-read at src, activate-write at dst, and the row-buffer move
// instant — the same event stream in the same order. shards must hold
// the lock set covering both addresses.
func copyLocked(shards []*shard, src, dst isa.Addr) (dbc.Row, error) {
	row, err := shardByBase(shards, dbcBase(src)).readRow(src)
	if err != nil {
		return dbc.Row{}, err
	}
	dstSh := shardByBase(shards, dbcBase(dst))
	if err := dstSh.writeRow(dst, row); err != nil {
		return dbc.Row{}, err
	}
	dstSh.recorder().Move(srcFor(dbcBase(dst)), telemetry.OpRowCopy, row.N)
	return row, nil
}

// shardByBase resolves a DBC base within a locked shard set.
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
	m.cfgMu.Lock()
	if p.enabled() {
		m.prof = &p
	} else {
		m.prof = nil
	}
	m.cfgMu.Unlock()
	for _, sh := range m.snapshotShards() {
		// Build the injector before taking the shard lock: injectorFor
		// reads cfg state under cfgMu, and cfg-class mutexes order
		// strictly before shard locks.
		inj := m.injectorFor(sh.base)
		sh.mu.Lock()
		sh.d.SetFaultInjector(inj)
		sh.mu.Unlock()
	}
}

// injectorFor builds the injector the cluster at phys carries under the
// current fault profile: the profile's per-DBC injector, or nil when no
// profile is set.
func (m *Memory) injectorFor(phys isa.Addr) *device.FaultInjector {
	m.cfgMu.Lock()
	prof := m.prof
	m.cfgMu.Unlock()
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
	m.cfgMu.Lock()
	m.pol = p
	m.cfgMu.Unlock()
	for _, sh := range m.snapshotShards() {
		sh.mu.Lock()
		if sh.u != nil {
			sh.ex = nil
			if p.Enabled() {
				ex, err := resilient.NewExecutor(sh.u, p)
				if err != nil {
					sh.mu.Unlock()
					return err
				}
				sh.ex = ex
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Recovery returns the installed recovery policy (zero when disabled).
func (m *Memory) Recovery() resilient.Policy {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	return m.pol
}

// execPlan is a fully validated batch request: every address checked,
// the bank-staging rule enforced, and the lock set precomputed — all
// before any lock is taken, so an invalid request fails without
// touching (or blocking) any shard. Planning reads only the immutable
// geometry (quarantine is checked at lock time, in shardFor), so plans
// stay valid across executions and can be memoized (see PlanBatch).
type execPlan struct {
	kind     RequestKind
	in       isa.Instruction
	operands []isa.Addr
	dst      isa.Addr
	src      isa.Addr   // KindCopy: source row
	row      dbc.Row    // KindWrite: payload
	bases    []isa.Addr // sorted, deduplicated lock set
}

// planRequest validates one batch request of any kind and returns its
// plan (planExecute generalized to copy and write requests). buf, when
// non-nil, is an empty slice whose backing array the returned plan's
// lock set reuses — the batch planner passes each pooled plan's
// previous bases array so steady-state planning allocates nothing.
func (m *Memory) planRequest(r Request, buf []isa.Addr) (execPlan, error) {
	switch r.Kind {
	case KindExec:
		return m.planExecute(r.In, r.Operands, r.Dst, buf)
	case KindCopy:
		if err := m.checkAddr(r.Src); err != nil {
			return execPlan{}, err
		}
		if err := m.checkAddr(r.Dst); err != nil {
			return execPlan{}, err
		}
		return execPlan{
			kind: KindCopy, src: r.Src, dst: r.Dst,
			bases: m.sortBases(append(buf, dbcBase(r.Src), dbcBase(r.Dst))),
		}, nil
	case KindWrite:
		if err := m.checkAddr(r.Dst); err != nil {
			return execPlan{}, err
		}
		if r.Row.N != m.cfg.Geometry.TrackWidth {
			return execPlan{}, fmt.Errorf("memory: row width %d, want %d", r.Row.N, m.cfg.Geometry.TrackWidth)
		}
		return execPlan{kind: KindWrite, dst: r.Dst, row: r.Row, bases: append(buf, dbcBase(r.Dst))}, nil
	case KindRead:
		if err := m.checkAddr(r.Src); err != nil {
			return execPlan{}, err
		}
		return execPlan{kind: KindRead, src: r.Src, bases: append(buf, dbcBase(r.Src))}, nil
	default:
		return execPlan{}, fmt.Errorf("memory: unknown request kind %d", r.Kind)
	}
}

// runRequest executes a validated plan of any kind over its locked
// shards, mirroring the serial primitives exactly: KindExec is runPlan,
// KindCopy is CopyRow's locked body, KindWrite is WriteRow's.
func (m *Memory) runRequest(p execPlan, shards []*shard) (dbc.Row, error) {
	switch p.kind {
	case KindCopy:
		return copyLocked(shards, p.src, p.dst)
	case KindWrite:
		return p.row, shardByBase(shards, dbcBase(p.dst)).writeRow(p.dst, p.row)
	case KindRead:
		return shardByBase(shards, dbcBase(p.src)).readRow(p.src)
	default:
		return m.runPlan(p, shards)
	}
}

// planExecute validates the request upfront and returns its plan. The
// plan's lock set is built on buf's backing array when one is passed.
func (m *Memory) planExecute(in isa.Instruction, operands []isa.Addr, dst isa.Addr, buf []isa.Addr) (execPlan, error) {
	if err := in.Validate(m.cfg.Geometry, m.cfg.TRD); err != nil {
		return execPlan{}, err
	}
	if !in.Src.IsPIMEnabled(m.cfg.Geometry) {
		return execPlan{}, fmt.Errorf("memory: %+v is not a PIM-enabled DBC", in.Src)
	}
	if len(operands) != in.Operands {
		return execPlan{}, fmt.Errorf("memory: %v expects %d operands, got %d", in.Op, in.Operands, len(operands))
	}
	switch in.Op {
	case isa.OpMult:
		if len(operands) != 2 {
			return execPlan{}, fmt.Errorf("memory: mult expects 2 operands, got %d", len(operands))
		}
	case isa.OpAdd, isa.OpMax, isa.OpRelu, isa.OpVote,
		isa.OpDiv, isa.OpMod, isa.OpShl, isa.OpShr, isa.OpFma,
		isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpNot:
	default:
		return execPlan{}, fmt.Errorf("memory: opcode %v is not a PIM operation", in.Op)
	}
	if err := m.checkAddr(dst); err != nil {
		return execPlan{}, err
	}
	if buf == nil {
		// One right-sized allocation for the one-shot Execute path;
		// batch planning passes a pooled buffer instead.
		buf = make([]isa.Addr, 0, len(operands)+2)
	}
	bases := append(buf, dbcBase(in.Src))
	for i, a := range operands {
		if err := m.checkAddr(a); err != nil {
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
	return execPlan{in: in, operands: operands, dst: dst, bases: m.sortBases(bases)}, nil
}

// runPlan executes a validated plan over its locked shards, in
// program order: stage operands, run the PIM op (through the recovery
// executor when one is installed), write the result. shards holds the
// plan's lock set (all locks held by the caller).
func (m *Memory) runPlan(p execPlan, shards []*shard) (dbc.Row, error) {
	execSh := shardByBase(shards, dbcBase(p.in.Src))
	u := execSh.u
	defer execSh.recorder().Span(srcFor(execSh.base), "exec-"+p.in.Op.String())()
	rows := make([]dbc.Row, len(p.operands))
	for i, a := range p.operands {
		row, err := shardByBase(shards, dbcBase(a)).readRow(a)
		if err != nil {
			return dbc.Row{}, fmt.Errorf("memory: operand %d: %w", i, err)
		}
		if dbcBase(a) != dbcBase(p.in.Src) {
			// Staged over the row buffer into the executing DBC.
			execSh.recorder().Move(srcFor(execSh.base), telemetry.OpRowCopy, row.N)
		}
		rows[i] = row
	}

	var result dbc.Row
	var err error
	if ex := execSh.ex; ex != nil {
		// Recovered path: the executor re-runs the op per its policy,
		// prices retries into the shard tracer, and reports detected
		// faults to the health ledger (quarantines are processed by the
		// caller once all locks are released).
		var out resilient.Outcome
		result, out, err = ex.Do(p.in.Op.String(), func() (dbc.Row, error) {
			return dispatchOp(u, p.in, rows)
		})
		if out.Detected > 0 {
			m.noteFaults(execSh.base, out.Detected, ex.Policy.QuarantineAfter)
		}
	} else {
		result, err = dispatchOp(u, p.in, rows)
	}
	if err != nil {
		return dbc.Row{}, err
	}
	if err := shardByBase(shards, dbcBase(p.dst)).writeRow(p.dst, result); err != nil {
		return dbc.Row{}, err
	}
	return result, nil
}

// dispatchOp runs one cpim opcode on the unit. It is re-executable:
// every operation rewrites the DBC window from the staged operand rows,
// so the recovery executor can replay it verbatim.
func dispatchOp(u *pim.Unit, in isa.Instruction, rows []dbc.Row) (dbc.Row, error) {
	switch in.Op {
	case isa.OpAdd:
		return u.AddMulti(rows, in.Blocksize)
	case isa.OpMult:
		return u.Multiply(rows[0], rows[1], in.Blocksize/2)
	case isa.OpMax:
		return u.MaxTR(rows, in.Blocksize)
	case isa.OpRelu:
		return u.ReLU(rows[0], in.Blocksize)
	case isa.OpVote:
		return u.Vote(rows)
	case isa.OpDiv:
		q, _, err := u.DivMod(rows[0], rows[1], in.Blocksize)
		return q, err
	case isa.OpMod:
		_, r, err := u.DivMod(rows[0], rows[1], in.Blocksize)
		return r, err
	case isa.OpShl:
		return u.LogicalShift(rows[0], in.Imm, in.Blocksize, true)
	case isa.OpShr:
		return u.LogicalShift(rows[0], in.Imm, in.Blocksize, false)
	case isa.OpFma:
		return u.FMA(rows[0], rows[1], rows[2], in.Blocksize/2)
	default:
		op, _ := bulkOp(in.Op)
		return u.BulkBitwise(op, rows)
	}
}

// Execute runs a cpim instruction whose operands live at memory
// addresses: the controller stages each operand into the PIM-enabled
// DBC named by in.Src over the bank's shared row buffer (§III-A: "the
// shared row buffer ... can be used to move data from non-PIM DBCs to
// PIM-enabled DBCs"), executes the operation there, and writes the
// result to dst.
//
// The request is validated in full — instruction encoding, address
// geometry, and the bank-staging rule — before any shard lock is taken;
// operands or destinations outside in.Src's bank return ErrCrossDBC
// (stage them with CopyRow first). The involved shard locks are then
// acquired in address order and held for the whole operation.
func (m *Memory) Execute(in isa.Instruction, operands []isa.Addr, dst isa.Addr) (dbc.Row, error) {
	p, err := m.planExecute(in, operands, dst, nil)
	if err != nil {
		return dbc.Row{}, err
	}
	// Quarantines scheduled by this execution are processed after the
	// shard locks are released (defers run LIFO).
	defer m.processQuarantines()
	shards, unlock, err := m.lockOrdered(p.bases)
	if err != nil {
		return dbc.Row{}, err
	}
	defer unlock()
	return m.runPlan(p, shards)
}

// bulkOp maps a bulk opcode to the PIM logic selector.
func bulkOp(o isa.OpCode) (dbc.Op, bool) {
	switch o {
	case isa.OpAnd:
		return dbc.OpAND, true
	case isa.OpOr:
		return dbc.OpOR, true
	case isa.OpNand:
		return dbc.OpNAND, true
	case isa.OpNor:
		return dbc.OpNOR, true
	case isa.OpXor:
		return dbc.OpXOR, true
	case isa.OpXnor:
		return dbc.OpXNOR, true
	case isa.OpNot:
		return dbc.OpNOT, true
	}
	return 0, false
}

// MaterializedDBCs reports how many clusters have been touched (for
// tests and capacity sanity checks).
func (m *Memory) MaterializedDBCs() int {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
	return len(m.shards)
}
