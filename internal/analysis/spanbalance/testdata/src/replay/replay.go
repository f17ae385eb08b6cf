// Package replay models a loop that mirrors recorded Begin/End pairs
// into a recorder verbatim. Span balance was already enforced when the
// events were recorded, so the replaying Begin cannot be matched
// path-locally — such code vouches for it with a line-targeted
// //coruscantvet:ignore directive. These fixtures pin the contract
// around that: the targeted directive (with a reason) silences exactly
// its line, the same loop without a directive still fires, a
// reasonless directive is void, and `defer rec.Span(...)()` bracketing
// needs no directive at all.
package replay

import "telemetry"

// Phase mirrors the telemetry event phases the replay loop dispatches
// on.
type Phase int

const (
	// PhaseBegin opens a span.
	PhaseBegin Phase = iota
	// PhaseEnd closes the innermost span.
	PhaseEnd
)

// Event is one captured telemetry event.
type Event struct {
	Phase Phase
	Src   telemetry.Source
	Name  string
}

const src = telemetry.Source("replay")

// replayInPlace is the production idiom: the Begin mirrors a recorded
// pair whose balance was checked at capture time, vouched for by a
// line-targeted directive with a reason. No diagnostic.
func replayInPlace(rec *telemetry.Recorder, events []Event) {
	for _, e := range events {
		switch e.Phase {
		case PhaseBegin:
			//coruscantvet:ignore spanbalance -- replay mirrors recorded Begin/End pairs verbatim; balance was checked at capture time
			rec.Begin(e.Src, e.Name)
		case PhaseEnd:
			rec.End(e.Src)
		}
	}
}

// replayUnvouched is the same loop without the directive: the End in
// the sibling case runs on a different iteration's path, so the Begin
// must still be flagged — suppression is per-line, never blanket.
func replayUnvouched(rec *telemetry.Recorder, events []Event) {
	for _, e := range events {
		switch e.Phase {
		case PhaseBegin:
			rec.Begin(e.Src, e.Name) // want `Begin without a matching End`
		case PhaseEnd:
			rec.End(e.Src)
		}
	}
}

// replayReasonless carries a directive without the mandatory
// " -- reason" tail: the directive is void and the diagnostic stands.
func replayReasonless(rec *telemetry.Recorder, events []Event) {
	for _, e := range events {
		switch e.Phase {
		case PhaseBegin:
			//coruscantvet:ignore spanbalance
			rec.Begin(e.Src, e.Name) // want `Begin without a matching End`
		case PhaseEnd:
			rec.End(e.Src)
		}
	}
}

// windowedFastPath models the batch engine's serial fast path: the
// whole batch bracketed by a deferred span, each group's work under its
// own immediately-closed span. Balanced by construction — no directive
// needed.
func windowedFastPath(rec *telemetry.Recorder, groups int) {
	defer rec.Span(src, "batch")()
	for g := 0; g < groups; g++ {
		done := rec.Span(src, "group")
		done()
	}
}

var _ = replayInPlace
var _ = replayUnvouched
var _ = replayReasonless
var _ = windowedFastPath
