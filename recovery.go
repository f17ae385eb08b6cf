package coruscant

import (
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/reliability"
	"repro/internal/resilient"
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
	// FaultInjector attaches to a standalone Unit's DBC
	// (u.D.SetFaultInjector).
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
