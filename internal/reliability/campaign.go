package reliability

import (
	"fmt"
	"math/rand"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
	"repro/internal/trace"
)

// Campaign is a Monte Carlo fault-injection sweep through the full
// recovered execution path: the same randomized cpim workload runs
// twice on fault-injected memories — once unprotected and once under a
// recovery policy — and the delivered (end-to-end wrong-result) error
// rates are compared. Where MonteCarlo measures a bare unit, a campaign
// exercises the whole stack the policy protects: memory staging, batch
// grouping, the verify/retry/degrade loop, and quarantine remapping.
type Campaign struct {
	// Base is the memory configuration; the zero value means
	// params.DefaultConfig.
	Base params.Config
	// TRProb and ShiftProb parameterize the §V-F fault model, injected
	// per DBC (memory.FaultProfile) so batches keep their windowed
	// group schedule.
	TRProb    float64
	ShiftProb float64
	// Policy is the recovery protocol of the protected run.
	Policy resilient.Policy
	// Ops is the number of cpim additions per run.
	Ops int
	// Seed fixes the workload and both fault streams.
	Seed int64
	// Banks bounds how many banks the workload spreads over; 0 uses up
	// to 8 (capped by the geometry). More banks = more parallel groups.
	Banks int
}

// CampaignReport is the outcome of one campaign.
type CampaignReport struct {
	Ops         int
	Policy      string
	TRProb      float64
	RawErrors   int // wrong results delivered by the unprotected run
	RecovErrors int // wrong results delivered by the recovered run
	Detected    int // faults the recovery layer detected
	Quarantined int // quarantine decisions taken
	SparesUsed  int // quarantines that remapped to a spare
	RawStats    trace.Stats
	RecovStats  trace.Stats
}

// RawRate returns the unprotected delivered error rate.
func (r CampaignReport) RawRate() float64 { return float64(r.RawErrors) / float64(r.Ops) }

// RecovRate returns the recovered delivered error rate.
func (r CampaignReport) RecovRate() float64 { return float64(r.RecovErrors) / float64(r.Ops) }

// Improvement returns the achieved error-rate reduction factor. A
// recovered run with zero delivered errors yields a lower bound: the
// factor assuming one error would have occurred on the next op.
func (r CampaignReport) Improvement() float64 {
	if r.RawErrors == 0 {
		return 1
	}
	errs := r.RecovErrors
	if errs == 0 {
		errs = 1 // resolution floor of the sample size
	}
	return float64(r.RawErrors) / float64(errs)
}

// Overhead returns the cycle multiplier the recovery policy cost
// (recovered cycles / raw cycles, retries and stalls included).
func (r CampaignReport) Overhead() float64 {
	raw := r.RawStats.Cycles()
	if raw == 0 {
		return 1
	}
	return float64(r.RecovStats.Cycles()) / float64(raw)
}

func (r CampaignReport) String() string {
	return fmt.Sprintf(
		"campaign: ops=%d policy=%s p=%g raw=%d (%.2e) recovered=%d (%.2e) improvement=%.0fx detected=%d quarantined=%d spares=%d overhead=%.2fx",
		r.Ops, r.Policy, r.TRProb, r.RawErrors, r.RawRate(), r.RecovErrors, r.RecovRate(),
		r.Improvement(), r.Detected, r.Quarantined, r.SparesUsed, r.Overhead())
}

// campaignOp is one randomized addition: three operand rows, the
// request executing them, and the precomputed expected lane sums.
type campaignOp struct {
	req         memory.Request
	operandRows []dbc.Row
	want        []uint64
}

// Run executes the campaign: one unprotected and one recovered pass
// over the identical workload, both driven through ExecuteBatch at full
// bank parallelism.
func (c Campaign) Run() (CampaignReport, error) {
	cfg := c.Base
	if cfg == (params.Config{}) {
		cfg = params.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return CampaignReport{}, err
	}
	if c.Ops <= 0 {
		return CampaignReport{}, fmt.Errorf("reliability: campaign needs Ops > 0, got %d", c.Ops)
	}
	if err := c.Policy.Validate(); err != nil {
		return CampaignReport{}, err
	}
	rep := CampaignReport{Ops: c.Ops, Policy: c.Policy.String(), TRProb: c.TRProb}

	ops, err := c.workload(cfg)
	if err != nil {
		return CampaignReport{}, err
	}

	rawErrs, rawStats, _, err := c.runPass(cfg, ops, resilient.Policy{})
	if err != nil {
		return CampaignReport{}, fmt.Errorf("reliability: raw pass: %w", err)
	}
	rep.RawErrors, rep.RawStats = rawErrs, rawStats

	recovErrs, recovStats, health, err := c.runPass(cfg, ops, c.Policy)
	if err != nil {
		return CampaignReport{}, fmt.Errorf("reliability: recovered pass: %w", err)
	}
	rep.RecovErrors, rep.RecovStats = recovErrs, recovStats
	rep.Detected = health.TotalDetected
	rep.Quarantined = len(health.Quarantined)
	rep.SparesUsed = health.SparesUsed()
	return rep, nil
}

// campaign workload shape: 3-operand lane-wise adds, values bounded so
// lane sums never carry across the blocksize boundary.
const (
	campaignOperands  = 3
	campaignBlocksize = 8
)

// workload builds the randomized op list once; both passes replay it.
func (c Campaign) workload(cfg params.Config) ([]campaignOp, error) {
	g := cfg.Geometry
	banks := c.Banks
	if banks <= 0 {
		banks = 8
	}
	if banks > g.Banks {
		banks = g.Banks
	}
	lanes := g.TrackWidth / campaignBlocksize
	maxVal := int64(1<<campaignBlocksize) / campaignOperands // sums stay in-lane
	rng := rand.New(rand.NewSource(c.Seed))
	pimDBC := g.DBCsPerTile - g.PIMDBCsPerTile

	ops := make([]campaignOp, c.Ops)
	for i := range ops {
		bank := i % banks
		exec := isa.Addr{Bank: bank, Tile: 0, DBC: pimDBC}
		// Operands and destination live in a plain DBC of the same bank.
		data := isa.Addr{Bank: bank, Subarray: 1 % g.SubarraysPerBank, Tile: 1 % g.TilesPerSubarray}
		want := make([]uint64, lanes)
		operands := make([]isa.Addr, campaignOperands)
		for o := range operands {
			vals := make([]uint64, lanes)
			for l := range vals {
				vals[l] = uint64(rng.Int63n(maxVal))
				want[l] += vals[l]
			}
			row, err := pim.PackLanes(vals, campaignBlocksize, g.TrackWidth)
			if err != nil {
				return nil, err
			}
			operands[o] = data
			operands[o].Row = o
			ops[i].operandRows = append(ops[i].operandRows, row)
		}
		dst := data
		dst.Row = campaignOperands
		ops[i].req = memory.Request{
			In: isa.Instruction{
				Op: isa.OpAdd, Src: exec,
				Operands: campaignOperands, Blocksize: campaignBlocksize,
			},
			Operands: operands,
			Dst:      dst,
		}
		ops[i].want = want
	}
	return ops, nil
}

// runPass executes the workload on a fresh memory under the given
// policy (zero = unprotected) and counts delivered wrong results.
//
// Ops on one bank reuse the same operand addresses, so the pass runs in
// rounds: each round stages and executes one op per bank — distinct
// banks, disjoint footprints, full ExecuteBatch parallelism — and
// staging happens between rounds. Port reads and writes never consume
// the fault injector (faults live in shifts and TR senses), so with
// ShiftProb = 0 staging is exact and every delivered error is an
// execution-path error the recovery policy had a chance to catch.
func (c Campaign) runPass(cfg params.Config, ops []campaignOp, pol resilient.Policy) (int, trace.Stats, memory.HealthReport, error) {
	fail := func(err error) (int, trace.Stats, memory.HealthReport, error) {
		return 0, trace.Stats{}, memory.HealthReport{}, err
	}
	m, err := memory.New(cfg)
	if err != nil {
		return fail(err)
	}
	if pol.Enabled() {
		if err := m.SetRecovery(pol); err != nil {
			return fail(err)
		}
	}
	m.SetFaultProfile(memory.FaultProfile{TRProb: c.TRProb, ShiftProb: c.ShiftProb, Seed: c.Seed + 1})

	banks := 0
	for _, op := range ops {
		if op.req.In.Src.Bank >= banks {
			banks = op.req.In.Src.Bank + 1
		}
	}
	errs := 0
	reqs := make([]memory.Request, 0, banks)
	for start := 0; start < len(ops); start += banks {
		end := start + banks
		if end > len(ops) {
			end = len(ops)
		}
		round := ops[start:end]
		for _, op := range round {
			for o, row := range op.operandRows {
				if err := m.WriteRow(op.req.Operands[o], row); err != nil {
					return fail(err)
				}
			}
		}
		reqs = reqs[:0]
		for _, op := range round {
			reqs = append(reqs, op.req)
		}
		for i, res := range m.ExecuteBatch(reqs) {
			if res.Err != nil {
				return fail(res.Err)
			}
			got := pim.UnpackLanes(res.Row, campaignBlocksize)
			for l, w := range round[i].want {
				if got[l] != w {
					errs++
					break
				}
			}
		}
	}
	return errs, m.Stats(), m.Health(), nil
}
