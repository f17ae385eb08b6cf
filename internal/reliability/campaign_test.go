package reliability

import (
	"testing"

	"repro/internal/resilient"
)

// TestCampaignMeetsErrorRateTarget is the PR acceptance criterion: at a
// TR fault probability of 1e-3 under NMR(N=3), the campaign must report
// a delivered error rate at least 100x below the unprotected rate. Run
// at 2000 ops to keep CI fast; the 10k-op default of the CLI holds the
// same margin.
func TestCampaignMeetsErrorRateTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep is slow")
	}
	c := Campaign{
		TRProb: 1e-3,
		Policy: resilient.DefaultPolicy(),
		Ops:    2000,
		Seed:   1,
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.RawErrors == 0 {
		t.Fatal("raw pass saw no faults; fault injection is not wired")
	}
	if got := rep.Improvement(); got < 100 {
		t.Fatalf("improvement = %.1fx, want >= 100x (%s)", got, rep)
	}
	if rep.Detected == 0 {
		t.Error("recovery layer detected no faults")
	}
	if rep.Overhead() <= 1 {
		t.Errorf("overhead = %.2fx; NMR must cost cycles", rep.Overhead())
	}
}

// TestCampaignDeterministic: two runs with the same seed produce the
// same report — the per-DBC fault streams are seeded, not scheduled.
func TestCampaignDeterministic(t *testing.T) {
	c := Campaign{
		TRProb: 1e-3,
		Policy: resilient.DefaultPolicy(),
		Ops:    400,
		Seed:   7,
	}
	a, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("campaign not deterministic for a fixed seed:\n  first:  %+v\n  second: %+v", a, b)
	}

	// A quarantining campaign runs the spare-seeded fault streams of
	// remapped clusters too; its report is pinned exactly.
	pol := resilient.DefaultPolicy()
	pol.QuarantineAfter = 3
	q, err := Campaign{TRProb: 5e-3, Policy: pol, Ops: 400, Seed: 7}.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := [...]int{q.RawErrors, q.RecovErrors, q.Detected, q.Quarantined, q.SparesUsed,
		q.RawStats.Cycles(), q.RecovStats.Cycles()}
	if want := [...]int{370, 44, 1593, 8, 8, 16856, 155627}; got != want {
		t.Errorf("quarantining campaign [raw recov detected quarantined spares rawCycles recovCycles] = %v, want %v", got, want)
	}
}

// TestCampaignValidation covers the error paths.
func TestCampaignValidation(t *testing.T) {
	if _, err := (Campaign{Policy: resilient.DefaultPolicy()}).Run(); err == nil {
		t.Error("Ops=0 should be rejected")
	}
	bad := Campaign{Ops: 10, Policy: resilient.Policy{Verify: resilient.VerifyNMR, NMR: 4}}
	if _, err := bad.Run(); err == nil {
		t.Error("invalid policy should be rejected")
	}
}

// TestCampaignCleanRun: with no faults the raw and recovered passes
// must both deliver every result correctly.
func TestCampaignCleanRun(t *testing.T) {
	c := Campaign{
		Policy: resilient.DefaultPolicy(),
		Ops:    64,
		Seed:   3,
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RawErrors != 0 || rep.RecovErrors != 0 {
		t.Fatalf("clean campaign delivered errors: %+v", rep)
	}
	if rep.Detected != 0 {
		t.Fatalf("clean campaign detected %d faults", rep.Detected)
	}
}
