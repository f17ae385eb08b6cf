// Package coruscant is the public API of the CORUSCANT reproduction: a
// bit-level simulator of processing-in-racetrack-memory (DWM PIM) as
// described in "CORUSCANT: Fast Efficient Processing-in-Racetrack
// Memories" (MICRO 2022).
//
// The façade re-exports the building blocks a downstream user needs:
//
//   - Config/TRD/Geometry — device and system parameters (Table II);
//   - Unit — a PIM-enabled domain-block cluster executing multi-operand
//     bulk-bitwise logic, addition, carry-save reduction, multiplication,
//     max/ReLU, and N-modular-redundancy voting, all bit-exact and with
//     cycle/energy accounting;
//   - Instruction/Addr — the cpim instruction (§III-E), which Memory,
//     the memory controller, stages and runs;
//   - System — the memory-hierarchy timing/energy model;
//   - RecoveryPolicy/Campaign — the fault detect/retry/degrade layer
//     and its Monte Carlo evaluation harness;
//   - the experiment generators that regenerate every table and figure
//     of the paper's evaluation.
//
// Constructors take only a configuration; telemetry, fault injection
// and recovery attach through setters (Unit.SetTelemetry,
// Memory.SetTelemetry, Memory.SetFaultProfile, Memory.SetRecovery and
// ShardPool.SetRecovery), the one way every caller attaches them.
//
// Quickstart:
//
//	u, err := coruscant.NewUnit(coruscant.DefaultConfig())
//	...
//	sums, err := u.AddMulti(rows, 8) // five-operand lane-wise addition
//
// Recovered execution:
//
//	m, err := coruscant.NewMemory(cfg)
//	...
//	err = m.SetRecovery(coruscant.DefaultRecoveryPolicy())
//
// See the examples directory for runnable programs.
package coruscant

import (
	"io"
	"net/http"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/mem"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
	"repro/internal/trace"
)

// Core parameter types.
type (
	// Config bundles the device, geometry, timing and energy parameters.
	Config = params.Config
	// TRD is a transverse-read distance (3, 5 or 7).
	TRD = params.TRD
	// Geometry describes the bank/subarray/tile/DBC organization.
	Geometry = params.Geometry
	// Energy is the per-primitive energy table.
	Energy = params.Energy
	// Timing carries the DDR3 and device clock parameters.
	Timing = params.Timing
)

// Supported transverse-read distances.
const (
	TRD3 = params.TRD3
	TRD5 = params.TRD5
	TRD7 = params.TRD7
)

// DefaultConfig returns the paper's primary configuration: TRD=7 with
// the Table II geometry and calibrated energies.
func DefaultConfig() Config { return params.DefaultConfig() }

// Device and cluster types.
type (
	// Nanowire is a single DWM wire with two access ports, transverse
	// read and transverse write.
	Nanowire = device.Nanowire
	// DBC is a domain-block cluster of lockstepped nanowires.
	DBC = dbc.DBC
	// Row is a bit vector across a DBC's nanowires.
	Row = dbc.Row
	// Op is a bulk-bitwise polymorphic-gate operation.
	Op = dbc.Op
	// FaultInjector perturbs transverse reads and shifts (§V-F).
	FaultInjector = device.FaultInjector
)

// Bulk-bitwise operations of the PIM logic block (Fig. 4(b)).
const (
	OpOR   = dbc.OpOR
	OpNOR  = dbc.OpNOR
	OpAND  = dbc.OpAND
	OpNAND = dbc.OpNAND
	OpXOR  = dbc.OpXOR
	OpXNOR = dbc.OpXNOR
	OpNOT  = dbc.OpNOT
	OpMAJ  = dbc.OpMAJ
)

// NewNanowire builds a single wire with the given data rows and window.
func NewNanowire(rows int, trd TRD) (*Nanowire, error) {
	return device.NewNanowire(rows, trd)
}

// NewFaultInjector returns a deterministic fault source.
func NewFaultInjector(trProb, shiftProb float64, seed int64) *FaultInjector {
	return device.NewFaultInjector(trProb, shiftProb, seed)
}

// PIM execution.
type (
	// Unit is one PIM-enabled DBC with its sensing and logic circuits —
	// the primary object of this library.
	Unit = pim.Unit
	// Reduction is the S/C/C' output of a carry-save reduction.
	Reduction = pim.Reduction
	// Stats counts device primitives executed by a Unit.
	Stats = trace.Stats
	// Cost is a latency/energy pair.
	Cost = trace.Cost
)

// NewUnit builds a PIM unit for the configuration.
func NewUnit(cfg Config) (*Unit, error) { return pim.NewUnit(cfg) }

// NewRow returns an all-zero row of n wires.
func NewRow(n int) Row { return dbc.NewRow(n) }

// FromBits packs per-wire bits into a row.
func FromBits(bits ...uint8) Row { return dbc.FromBits(bits...) }

// PackLanes packs values into a row of lane-bit lanes (little-endian
// along the wire index).
func PackLanes(vals []uint64, lane, width int) (Row, error) {
	return pim.PackLanes(vals, lane, width)
}

// UnpackLanes extracts lane values from a row.
func UnpackLanes(row Row, lane int) []uint64 { return pim.UnpackLanes(row, lane) }

// CSD returns the canonical signed-digit recoding used by constant
// multiplication (§III-D1).
func CSD(c uint64) []pim.SignedDigit { return pim.CSD(c) }

// The cpim instruction (§III-E); Memory.Execute runs it.
type (
	// Instruction is one cpim operation.
	Instruction = isa.Instruction
	// Addr locates a row in the memory hierarchy.
	Addr = isa.Addr
	// OpCode enumerates cpim operations.
	OpCode = isa.OpCode
)

// cpim opcodes (§III-E).
const (
	OpcodeNop   = isa.OpNop
	OpcodeRead  = isa.OpRead
	OpcodeWrite = isa.OpWrite
	OpcodeAnd   = isa.OpAnd
	OpcodeOr    = isa.OpOr
	OpcodeNand  = isa.OpNand
	OpcodeNor   = isa.OpNor
	OpcodeXor   = isa.OpXor
	OpcodeXnor  = isa.OpXnor
	OpcodeNot   = isa.OpNot
	OpcodeAdd   = isa.OpAdd
	OpcodeMult  = isa.OpMult
	OpcodeMax   = isa.OpMax
	OpcodeRelu  = isa.OpRelu
	OpcodeVote  = isa.OpVote
	// PIRM-style arithmetic extension: restoring division/modulo,
	// variable logical shifts priced as racetrack shifts, and fused
	// multiply-add on the multiplier's partial-product planes.
	OpcodeDiv = isa.OpDiv
	OpcodeMod = isa.OpMod
	OpcodeShl = isa.OpShl
	OpcodeShr = isa.OpShr
	OpcodeFma = isa.OpFma
)

// pimc: the placement-aware compiler from pimasm programs to memory
// execution plans (parse → legalize → place → schedule).
type (
	// CompileOptions holds a compilation's three settings: the
	// placement level, a telemetry recorder for per-pass spans and a
	// per-pass dump hook. The naive baseline to compare a plan against
	// is a Level 0 compile.
	CompileOptions = compile.Options
	// CompileResult carries the executable plan, its input/output rows
	// and the placement cost model; its ShiftsByDBC method splits the
	// predicted shift steps per DBC, formatting the labels when called.
	CompileResult = compile.Result
	// CompiledPlan is an executable schedule over a Memory: a sequence
	// of ExecuteBatch windows.
	CompiledPlan = compile.Plan
	// CompiledStep is one ExecuteBatch window of a plan.
	CompiledStep = compile.Step
	// PlanStats is the cost model's prediction for a compiled plan:
	// row copies, shift steps, cycles and makespan, plus the plan's
	// Batches — its ExecuteBatch windows, one per step at every level.
	PlanStats = compile.PlanStats
	// ProgramOutput names one load or store row of a compiled program.
	ProgramOutput = compile.Output
	// VetDiag is one diagnostic from the pimasm IR verifier.
	VetDiag = compile.Diag
	// VetErrorClass labels a verifier or front-end rejection
	// (use-before-def, width-overflow, dead-store, ...).
	VetErrorClass = compile.ErrorClass
)

// CompileProgram compiles a pimasm program into an executable plan.
// The compiled plan is result-identical to naive hand-placed execution;
// at Level >= 1 it computes each value once, folds lane-exact
// identities, and needs fewer cross-DBC row-buffer moves and shorter
// port-alignment shifts, and at Level >= 2 it pipelines the schedule —
// staging overlaps compute inside batch windows, shrinking the
// critical-path cycle count reported by Recorder().Makespan() — and
// runs each div and mod of the same operands as one DivMod kernel.
func CompileProgram(src string, cfg Config, opts CompileOptions) (*CompileResult, error) {
	return compile.Compile(src, cfg, opts)
}

// VetProgram runs the pimasm front end, the dataflow verifier and the
// legalizer's operand-count and immediate checks at cfg's TRD without
// compiling: every diagnostic — syntax and semantic rejections as well
// as dead-store/unreachable-result warnings — comes back line-numbered
// and classed, each rejection on the line and class Compile reports.
// Compile runs the same checks and fails on their first error but
// drops the warnings; VetProgram is the way to see them.
func VetProgram(src string, cfg Config) []VetDiag {
	return compile.Vet(src, cfg)
}

// System model.
type (
	// System is the Table II machine model used by the system-level
	// experiments.
	System = mem.System
	// Tech selects DRAM or DWM timing.
	Tech = mem.Tech
)

// Memory technologies.
const (
	DRAM = mem.DRAM
	DWM  = mem.DWM
)

// NewSystem returns the Table II system model.
func NewSystem(cfg Config) *System { return mem.NewSystem(cfg) }

// Memory is the functional whole-memory model: the Fig. 2 hierarchy
// behind one address space, with row-buffer data movement and in-place
// cpim execution in the PIM-enabled DBCs. One lock serializes its
// callers; ExecuteBatch models bank-level parallelism as window lanes in
// simulated time, and host parallelism comes from a ShardPool's shards.
type Memory = memory.Memory

// NewMemory returns an empty functional memory (clusters materialize
// lazily, so the full 1 GB geometry is addressable).
func NewMemory(cfg Config) (*Memory, error) { return memory.New(cfg) }

// ShardPool is a fixed set of independent Memory shards behind one
// owner — the substrate of the coruscantd service front end. Shards
// share nothing, so each can run on its own goroutine; bank-level
// parallelism inside a shard is modelled in simulated time. Routing is
// the caller's concern (the service routes by explicit shard id or
// tenant hash). ShardPool.SetRecovery installs a policy on every
// shard; telemetry and faults attach per shard (Shard(i).SetTelemetry,
// Shard(i).SetFaultProfile), since one shared recorder would serialize
// the shards.
type ShardPool = memory.Pool

// NewShardPool builds n independent memory shards of one
// configuration.
func NewShardPool(cfg Config, n int) (*ShardPool, error) { return memory.NewPool(cfg, n) }

// MoveStats counts row-granularity data movement inside a Memory.
type MoveStats = memory.MoveStats

// Batch execution over a Memory.
type (
	// BatchRequest is one cpim execution for Memory.ExecuteBatch.
	BatchRequest = memory.Request
	// BatchResult is the positional outcome of one batch request.
	BatchResult = memory.Result
)

// ErrCrossDBC reports an operand outside the executing DBC's bank —
// the §III-A staging rule: operands reach a PIM DBC over the
// bank-shared row buffer, so cross-bank operands must be staged with
// CopyRow first. Test with errors.Is.
var ErrCrossDBC = memory.ErrCrossDBC

// Telemetry: the engine-wide observability layer (cycle-accurate op
// tracing, the recorder's cost ledger, pluggable sinks, and the
// profiler that aggregates the stream).
type (
	// Recorder is the telemetry hub; attach one with Unit.SetTelemetry
	// or Memory.SetTelemetry. A nil *Recorder disables telemetry at the
	// cost of one branch per hook.
	Recorder = telemetry.Recorder
	// TelemetryEvent is one record of the telemetry stream.
	TelemetryEvent = telemetry.Event
	// TelemetrySink consumes telemetry events.
	TelemetrySink = telemetry.Sink
	// TelemetrySource labels an event's emitting component.
	TelemetrySource = telemetry.Source
	// Metrics is a recorder's cost ledger (Recorder.Metrics): the count
	// and wire total of every event kind. Per-source, per-span and
	// per-mark aggregates are the Profiler's.
	Metrics = telemetry.Metrics
	// RingSink keeps the last N events in memory.
	RingSink = telemetry.RingSink
	// ChromeSink exports a Chrome trace_event file loadable in
	// Perfetto or chrome://tracing.
	ChromeSink = telemetry.ChromeSink
	// Profiler is the sink that aggregates the stream: per-DBC wear,
	// head occupancy and shift distances, per-kind, per-span and
	// per-mark totals, and the -metrics text report (WriteText).
	Profiler = profile.Profiler
)

// NewRecorder builds a telemetry recorder pricing events with cfg's
// energy table and fanning out to the given sinks.
func NewRecorder(cfg Config, sinks ...TelemetrySink) *Recorder {
	return telemetry.NewRecorder(cfg, sinks...)
}

// NewProfiler returns an empty profiler for cfg's geometry; attach it to
// a recorder as a sink.
func NewProfiler(cfg Config) *Profiler { return profile.New(cfg) }

// NewRingSink keeps the most recent capacity events in memory.
func NewRingSink(capacity int) *RingSink { return telemetry.NewRingSink(capacity) }

// NewChromeSink streams a Chrome trace_event JSON array to w; open the
// file in https://ui.perfetto.dev or chrome://tracing (1 µs = 1 device
// cycle).
func NewChromeSink(w io.Writer) *ChromeSink { return telemetry.NewChromeSink(w) }

// Service: the PIM-as-a-service layer behind cmd/coruscantd — a
// ShardPool (see NewShardPool) fronted by the versioned /v1 HTTP API
// with admission control, per-tenant quotas, request coalescing and
// graceful drain. internal/service documents the wire schema and its
// grow-only versioning policy.
type (
	// ServiceConfig sizes a service server: device, shards,
	// queue depth, coalescing window, per-tenant quotas, telemetry.
	ServiceConfig = service.Config
	// ServiceServer owns the shard pool and serves the /v1 API.
	ServiceServer = service.Server
	// ServiceClient is the typed HTTP client for a running server.
	ServiceClient = service.Client
	// ServiceRequest is one wire operation (write/copy/read or cpim).
	ServiceRequest = service.Request
	// ServiceAddr locates a row in a shard's hierarchy on the wire.
	ServiceAddr = service.Addr
	// ServiceExecuteRequest wraps one ServiceRequest with its tenant
	// and optional explicit shard.
	ServiceExecuteRequest = service.ExecuteRequest
	// ServiceBatchRequest is an ordered batch for one shard,
	// bit-identical to serial execution.
	ServiceBatchRequest = service.BatchRequest
	// ServiceCounters is the server's admission/completion accounting.
	ServiceCounters = service.Counters
)

// NewServiceServer builds and starts a service server over its own
// shard pool. Drain it before discarding.
func NewServiceServer(cfg ServiceConfig) (*ServiceServer, error) { return service.NewServer(cfg) }

// NewServiceClient returns a typed client for a coruscantd base URL;
// httpc nil means http.DefaultClient.
func NewServiceClient(base string, httpc *http.Client) *ServiceClient {
	return service.NewClient(base, httpc)
}

// Service error taxonomy (wire code in parentheses); test with
// errors.Is. The envelope maps the engine sentinels too — see
// internal/service's contract table.
var (
	// ErrServiceBadRequest reports a malformed or unroutable request
	// (bad_request, 400).
	ErrServiceBadRequest = service.ErrBadRequest
	// ErrServiceQuota reports an exhausted per-tenant token bucket
	// (quota_exhausted, 429 + Retry-After).
	ErrServiceQuota = service.ErrQuota
	// ErrServiceOverloaded reports a full admission queue
	// (overloaded, 429 + Retry-After).
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrServiceDraining reports a server in graceful shutdown
	// (draining, 503).
	ErrServiceDraining = service.ErrDraining
	// ErrServiceTooLarge reports a request body over its endpoint's
	// size limit, or a compiled program over its statement limit
	// (too_large, 413).
	ErrServiceTooLarge = service.ErrTooLarge
)

// Experiments.
type (
	// ExperimentTable is one regenerated table or figure.
	ExperimentTable = experiments.Table
)

// Experiment runs the named experiment ("table1", "table3", "table4",
// "table5", "table6", "fig10", "fig11", "fig12", "tops").
func Experiment(id string) (*ExperimentTable, error) {
	g, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return g()
}

// ExperimentIDs lists the available experiments in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// AllExperiments regenerates every table and figure.
func AllExperiments() ([]*ExperimentTable, error) { return experiments.All() }
