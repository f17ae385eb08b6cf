// Package resilient is the fault-recovery layer of the CORUSCANT
// engine: it wraps PIM execution in a detect → retry → degrade loop so
// the transient shift/TR faults of the §V-F fault model no longer
// silently poison results.
//
// The building blocks the paper provides are passive: device.FaultInjector
// perturbs transverse reads, pim.Unit.Vote implements the §III-F
// N-modular-redundancy majority, and internal/reliability predicts the
// resulting error rates. This package turns them into a runtime
// protocol:
//
//   - Detection. A Policy selects a verification mode per operation:
//     VerifyNMR executes the operation N ∈ {3,5,7} times and compares
//     the replicas (unanimity = verified; any disagreement = detected
//     fault), VerifyDup executes twice and compares, VerifyOff passes
//     through with zero overhead.
//   - Retry. A detected fault triggers bounded re-execution. Between
//     attempts the controller stalls the DBC for a deterministic
//     backoff-in-cycles (BackoffCycles << attempt), priced into
//     trace.Stats (StallSteps) and the telemetry clock, so recovery
//     cost is visible in every report the simulator produces.
//   - Degradation. When retries are exhausted, VerifyNMR falls back to
//     the device-level majority vote (§III-F) over the last replica
//     set — a best-effort result plus a "giveup" telemetry mark —
//     while VerifyDup, which cannot correct, surfaces ErrUnverified.
//
// Every recovery decision is emitted on the telemetry stream under
// Source "resilient": fault instants for detections, marks for retries,
// give-ups and quarantines. memory.Memory couples this executor with a
// per-DBC health ledger that quarantines clusters whose detected-fault
// count crosses Policy.QuarantineAfter and remaps them to spare DBCs
// (see memory's health ledger), and the Campaign type drives Monte
// Carlo fault sweeps through the recovered path to measure delivered
// versus raw error rates.
package resilient

import (
	"errors"
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

// Source tags every telemetry event the recovery layer emits.
const Source = telemetry.Source("resilient")

// ErrUnverified reports a result that failed verification and exhausted
// its retry budget under a policy that cannot correct (VerifyDup).
// Test with errors.Is.
var ErrUnverified = errors.New("resilient: result unverified after retry budget")

// VerifyMode selects how an operation's result is checked.
type VerifyMode int

const (
	// VerifyOff disables verification: one execution, no checks, no
	// overhead (the zero value, so a zero Policy is a no-op).
	VerifyOff VerifyMode = iota
	// VerifyNMR executes the operation N times and requires unanimity,
	// falling back to the §III-F majority vote when retries run out.
	VerifyNMR
	// VerifyDup executes the operation twice and requires agreement;
	// disagreement after the retry budget is ErrUnverified.
	VerifyDup
)

func (v VerifyMode) String() string {
	switch v {
	case VerifyOff:
		return "off"
	case VerifyNMR:
		return "nmr"
	case VerifyDup:
		return "dup"
	}
	return fmt.Sprintf("verify(%d)", int(v))
}

// Policy configures the recovery protocol. The zero value disables
// recovery entirely.
type Policy struct {
	Verify VerifyMode
	// NMR is the replica count for VerifyNMR: 3, 5 or 7, and at most
	// the TRD of the executing unit (the §III-F vote needs the replicas
	// in one TR window).
	NMR int
	// MaxRetries bounds re-execution after a detected fault; 0 means
	// detect-only (accept the degraded result immediately).
	MaxRetries int
	// BackoffCycles is the base stall between attempts; retry k stalls
	// BackoffCycles<<k cycles (deterministic exponential backoff, priced
	// as trace.Stats.StallSteps).
	BackoffCycles int
	// QuarantineAfter is the number of detected faults on one DBC after
	// which memory.Memory quarantines and remaps it; 0 never
	// quarantines.
	QuarantineAfter int
}

// Enabled reports whether the policy performs any verification.
func (p Policy) Enabled() bool { return p.Verify != VerifyOff }

// Replicas returns the number of executions one verified attempt costs.
func (p Policy) Replicas() int {
	switch p.Verify {
	case VerifyNMR:
		return p.NMR
	case VerifyDup:
		return 2
	}
	return 1
}

// Validate reports policy encoding errors.
func (p Policy) Validate() error {
	switch p.Verify {
	case VerifyOff, VerifyDup:
	case VerifyNMR:
		if p.NMR != 3 && p.NMR != 5 && p.NMR != 7 {
			return fmt.Errorf("resilient: NMR degree %d (want 3, 5 or 7): %w", p.NMR, params.ErrBadTRD)
		}
	default:
		return fmt.Errorf("resilient: unknown verify mode %d", int(p.Verify))
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("resilient: negative retry budget %d", p.MaxRetries)
	}
	if p.BackoffCycles < 0 {
		return fmt.Errorf("resilient: negative backoff %d", p.BackoffCycles)
	}
	if p.QuarantineAfter < 0 {
		return fmt.Errorf("resilient: negative quarantine threshold %d", p.QuarantineAfter)
	}
	return nil
}

func (p Policy) String() string {
	switch p.Verify {
	case VerifyNMR:
		return fmt.Sprintf("nmr%d", p.NMR)
	default:
		return p.Verify.String()
	}
}

// ParsePolicy decodes the CLI spelling of a policy: "off", "dup",
// "nmr3", "nmr5" or "nmr7". Retry budget and thresholds come from
// DefaultPolicy and can be adjusted on the result.
func ParsePolicy(s string) (Policy, error) {
	p := DefaultPolicy()
	switch s {
	case "off", "":
		p.Verify = VerifyOff
	case "dup":
		p.Verify = VerifyDup
	case "nmr3", "nmr5", "nmr7":
		p.Verify = VerifyNMR
		p.NMR = int(s[3] - '0')
	default:
		return Policy{}, fmt.Errorf("resilient: unknown policy %q (want off, dup, nmr3, nmr5 or nmr7)", s)
	}
	return p, nil
}

// DefaultPolicy returns the reference protection level: triple modular
// redundancy with a small retry budget and an 8-cycle base backoff —
// the cheapest §III-F configuration that still corrects.
func DefaultPolicy() Policy {
	return Policy{Verify: VerifyNMR, NMR: 3, MaxRetries: 3, BackoffCycles: 8, QuarantineAfter: 0}
}

// Outcome summarizes one recovered execution.
type Outcome struct {
	Attempts    int  // verified attempts executed (1 when clean)
	Detected    int  // attempts whose replicas disagreed
	Retries     int  // re-executions after a detection
	StallCycles int  // backoff cycles priced into the trace
	GaveUp      bool // retry budget exhausted
	Voted       bool // result came from the §III-F majority vote
}

// Executor runs operations on one PIM unit under a recovery policy. It
// is single-threaded, like the unit it fronts; concurrent callers get
// one executor each (memory.Memory keeps one per PIM shard). The
// replica scratch is reused across calls, so the steady-state verified
// path allocates only what the wrapped operation itself allocates.
type Executor struct {
	U      *pim.Unit
	Policy Policy

	replicas []dbc.Row
}

// NewExecutor wraps a unit with a recovery policy.
func NewExecutor(u *pim.Unit, p Policy) (*Executor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Verify == VerifyNMR && !u.ValidNMR(p.NMR) {
		return nil, fmt.Errorf("resilient: NMR degree %d exceeds %v window: %w",
			p.NMR, u.TRD(), params.ErrBadTRD)
	}
	return &Executor{U: u, Policy: p}, nil
}

// Do executes op under the policy and returns the delivered row, the
// recovery outcome, and any error. name labels the operation in
// telemetry marks. The VerifyOff path is a plain call: no allocation,
// no extra cycles.
//
// op must be re-executable: it is invoked Policy.Replicas() times per
// attempt, and again on every retry. All PIM operations qualify — they
// are deterministic up to injected faults, which is exactly what the
// replica comparison detects.
func (e *Executor) Do(name string, op func() (dbc.Row, error)) (dbc.Row, Outcome, error) {
	var out Outcome
	if !e.Policy.Enabled() {
		out.Attempts = 1
		row, err := op()
		return row, out, err
	}
	n := e.Policy.Replicas()
	if cap(e.replicas) < n {
		e.replicas = make([]dbc.Row, n)
	}
	replicas := e.replicas[:n]
	rec := e.U.Recorder()

	for attempt := 0; ; attempt++ {
		out.Attempts++
		for i := 0; i < n; i++ {
			r, err := op()
			if err != nil {
				return dbc.Row{}, out, err
			}
			replicas[i] = r
		}
		if unanimous(replicas) {
			return replicas[0], out, nil
		}
		out.Detected++
		rec.Fault(Source, "detect:"+name, disagreeing(replicas))
		if attempt < e.Policy.MaxRetries {
			out.Retries++
			stall := e.Policy.BackoffCycles << attempt
			if stall > 0 {
				out.StallCycles += stall
				e.U.D.Stall(Source, stall)
			}
			rec.Mark(Source, "retry:"+name, attempt+1)
			continue
		}
		// Budget exhausted: degrade.
		out.GaveUp = true
		rec.Mark(Source, "giveup:"+name, out.Attempts)
		if e.Policy.Verify == VerifyNMR {
			row, err := e.U.Vote(replicas)
			if err != nil {
				return dbc.Row{}, out, err
			}
			out.Voted = true
			return row, out, nil
		}
		return replicas[0], out, fmt.Errorf("resilient: %s disagreed on %d attempts: %w",
			name, out.Attempts, ErrUnverified)
	}
}

// unanimous reports whether every replica equals the first.
func unanimous(rows []dbc.Row) bool {
	for _, r := range rows[1:] {
		if !r.Equal(rows[0]) {
			return false
		}
	}
	return true
}

// disagreeing counts the replicas that differ from the first — the
// wire payload of the detection fault event.
func disagreeing(rows []dbc.Row) int {
	n := 0
	for _, r := range rows[1:] {
		if !r.Equal(rows[0]) {
			n++
		}
	}
	return n
}
