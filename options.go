package coruscant

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/reliability"
	"repro/internal/resilient"
	"repro/internal/telemetry"
)

// Recovery: the fault detect/retry/degrade layer (internal/resilient).
type (
	// RecoveryPolicy selects verification mode, retry budget, backoff
	// and quarantine threshold for recovered execution.
	RecoveryPolicy = resilient.Policy
	// VerifyMode is a RecoveryPolicy verification mode.
	VerifyMode = resilient.VerifyMode
	// RecoveryOutcome summarizes one recovered execution.
	RecoveryOutcome = resilient.Outcome
	// RecoveryExecutor runs operations on one Unit under a policy.
	RecoveryExecutor = resilient.Executor
	// HealthReport is a Memory's health-ledger snapshot.
	HealthReport = memory.HealthReport
	// QuarantineRecord describes one quarantined (remapped) DBC.
	QuarantineRecord = memory.QuarantineRecord
	// FaultProfile is per-DBC deterministic fault injection, the one way
	// to inject faults into a Memory (Memory.SetFaultProfile); a
	// FaultInjector attaches to a standalone Unit (WithFaults).
	FaultProfile = memory.FaultProfile
	// Campaign is a Monte Carlo fault sweep through the recovered path.
	Campaign = reliability.Campaign
	// CampaignReport is the outcome of a Campaign.
	CampaignReport = reliability.CampaignReport
)

// Verification modes.
const (
	VerifyOff = resilient.VerifyOff
	VerifyNMR = resilient.VerifyNMR
	VerifyDup = resilient.VerifyDup
)

// DefaultRecoveryPolicy returns the reference protection level (NMR-3
// with a small retry budget).
func DefaultRecoveryPolicy() RecoveryPolicy { return resilient.DefaultPolicy() }

// ParseRecoveryPolicy decodes "off", "dup", "nmr3", "nmr5" or "nmr7".
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) { return resilient.ParsePolicy(s) }

// NewRecoveryExecutor wraps a Unit with a recovery policy for direct
// (non-Memory) recovered execution.
func NewRecoveryExecutor(u *Unit, p RecoveryPolicy) (*RecoveryExecutor, error) {
	return resilient.NewExecutor(u, p)
}

// Error taxonomy. Every sentinel is wrapped with %w by the layer that
// detects the condition, so errors.Is works through the whole stack.
var (
	// ErrBadTRD reports an invalid transverse-read distance or an
	// operand/redundancy count that exceeds the TR window.
	ErrBadTRD = params.ErrBadTRD
	// ErrLaneOverflow reports a value or lane count that overflows the
	// lane layout.
	ErrLaneOverflow = pim.ErrLaneOverflow
	// ErrQuarantined reports an access to a DBC the health ledger took
	// out of service.
	ErrQuarantined = memory.ErrQuarantined
	// ErrUnverified reports a result that failed verification after the
	// retry budget under a policy that cannot correct (VerifyDup).
	ErrUnverified = resilient.ErrUnverified
)

// options collects the construction-time attachments shared by the
// NewUnit/NewMemory/NewShardPool option lists.
type options struct {
	rec    *telemetry.Recorder
	recSet bool
	inj    *FaultInjector
	injSet bool
	pol    RecoveryPolicy
	polSet bool
}

// Option configures a Unit, Memory or ShardPool at construction.
// Options not applicable to the constructed type are an error, so a
// misplaced attachment fails loudly instead of being silently dropped.
type Option func(*options)

// WithTelemetry attaches a telemetry recorder at construction
// (replacing a later SetTelemetry call). Applies to NewUnit and
// NewMemory.
func WithTelemetry(rec *Recorder) Option {
	return func(o *options) { o.rec, o.recSet = rec, true }
}

// WithFaults attaches a fault injector at construction. Applies only
// to NewUnit; a Memory takes faults as a per-DBC FaultProfile.
func WithFaults(inj *FaultInjector) Option {
	return func(o *options) { o.inj, o.injSet = inj, true }
}

// WithRecovery installs a recovery policy at construction. Applies to
// NewMemory and NewShardPool; wrap a standalone Unit with
// NewRecoveryExecutor instead.
func WithRecovery(p RecoveryPolicy) Option {
	return func(o *options) { o.pol, o.polSet = p, true }
}

// gather folds an option list.
func gather(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// UnitSource is the telemetry source label of a standalone Unit built
// through the façade.
const UnitSource = telemetry.Source("unit")

// NewUnit builds a PIM unit for the configuration. Accepts
// WithTelemetry and WithFaults.
func NewUnit(cfg Config, opts ...Option) (*Unit, error) {
	o := gather(opts)
	if o.polSet {
		return nil, fmt.Errorf("coruscant: WithRecovery does not apply to NewUnit (wrap the unit with NewRecoveryExecutor)")
	}
	u, err := pim.NewUnit(cfg)
	if err != nil {
		return nil, err
	}
	if o.recSet {
		u.SetTelemetry(o.rec, UnitSource)
	}
	if o.injSet {
		u.D.SetFaultInjector(o.inj)
	}
	return u, nil
}

// NewMemory returns an empty functional memory (clusters materialize
// lazily, so the full 1 GB geometry is addressable). Accepts
// WithTelemetry and WithRecovery.
func NewMemory(cfg Config, opts ...Option) (*Memory, error) {
	o := gather(opts)
	if o.injSet {
		return nil, fmt.Errorf("coruscant: WithFaults does not apply to NewMemory (inject per-DBC faults with SetFaultProfile)")
	}
	m, err := memory.New(cfg)
	if err != nil {
		return nil, err
	}
	if o.recSet {
		m.SetTelemetry(o.rec)
	}
	if o.polSet {
		if err := m.SetRecovery(o.pol); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ShardPool is a fixed set of independent Memory shards behind one
// owner — the substrate of the coruscantd service front end. Shards
// share nothing, so each can run on its own goroutine; bank-level
// parallelism inside a shard is modelled in simulated time. Routing is the caller's concern (the service
// routes by explicit shard id or tenant hash).
type ShardPool = memory.Pool

// NewShardPool builds n independent memory shards of one
// configuration. Accepts WithRecovery, applied to every shard. WithTelemetry and WithFaults are errors here: one
// shared recorder would serialize the shards — attach per-shard
// observability through the service layer (service.Config
// Telemetry/Sinks) or per shard via Shard(i).SetTelemetry — and a
// memory takes faults only as a per-DBC Shard(i).SetFaultProfile.
func NewShardPool(cfg Config, n int, opts ...Option) (*ShardPool, error) {
	o := gather(opts)
	if o.recSet {
		return nil, fmt.Errorf("coruscant: WithTelemetry does not apply to NewShardPool (one recorder would serialize the shards; attach per shard via Shard(i).SetTelemetry or through the service layer)")
	}
	if o.injSet {
		return nil, fmt.Errorf("coruscant: WithFaults does not apply to NewShardPool (inject per-DBC faults per shard via Shard(i).SetFaultProfile)")
	}
	p, err := memory.NewPool(cfg, n)
	if err != nil {
		return nil, err
	}
	if o.polSet {
		if err := p.SetRecovery(o.pol); err != nil {
			return nil, err
		}
	}
	return p, nil
}
