// Package trace provides primitive-operation accounting for the
// CORUSCANT simulator. Every device-level primitive executed by the
// functional model (shifts, port reads/writes, transverse reads,
// transverse writes) is counted in a Stats value; latency and energy are
// then pure functions of those counts plus the params constants. The
// counting itself is one ledger, a telemetry.Recorder's: a DBC charges
// each step there, and Stats is that ledger's view, Prices its energy
// table and Timeline its makespan accounting.
//
// This mirrors the paper's methodology: the architecture-level results
// are derived from per-primitive costs (NVSIM/LLG-derived in the paper,
// calibrated constants here) multiplied by the operation counts of the
// cycle-level simulator.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/params"
)

// Stats counts device primitives. Parallel fields distinguish events that
// occupy a cycle slot (serialized control steps) from events that happen
// in the same cycle across many nanowires (energy accrues per nanowire,
// latency per control step).
type Stats struct {
	// Control-step counts: each costs one device cycle.
	ShiftSteps int // DBC-wide domain-wall shift steps
	TRSteps    int // transverse-read control steps (all selected wires in parallel)
	WriteSteps int // access-port write control steps
	ReadSteps  int // access-port read control steps
	TWSteps    int // transverse-write (write + segmented shift) control steps
	CopySteps  int // laterally shifted read/write steps (Fig. 4(a) brown path)
	LogicSteps int // PIM-logic / row-buffer-only steps (predication, mux reconfig)
	StallSteps int // idle cycles (recovery backoff, controller stalls); no energy

	// Per-wire event counts: energy accrues per affected nanowire.
	ShiftWires int // nanowire·step shift events
	TRWires    int // individual transverse reads performed
	WriteBits  int // individual bits written at ports
	ReadBits   int // individual bits read at ports
	TWBits     int // individual transverse-write bit events
	CopyBits   int // individual bits moved by shifted copies
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ShiftSteps += other.ShiftSteps
	s.TRSteps += other.TRSteps
	s.WriteSteps += other.WriteSteps
	s.ReadSteps += other.ReadSteps
	s.TWSteps += other.TWSteps
	s.CopySteps += other.CopySteps
	s.LogicSteps += other.LogicSteps
	s.StallSteps += other.StallSteps
	s.ShiftWires += other.ShiftWires
	s.TRWires += other.TRWires
	s.WriteBits += other.WriteBits
	s.ReadBits += other.ReadBits
	s.TWBits += other.TWBits
	s.CopyBits += other.CopyBits
}

// Scale returns s with every count multiplied by n (n repetitions of the
// traced operation).
func (s Stats) Scale(n int) Stats {
	return Stats{
		ShiftSteps: s.ShiftSteps * n,
		TRSteps:    s.TRSteps * n,
		WriteSteps: s.WriteSteps * n,
		ReadSteps:  s.ReadSteps * n,
		TWSteps:    s.TWSteps * n,
		CopySteps:  s.CopySteps * n,
		LogicSteps: s.LogicSteps * n,
		StallSteps: s.StallSteps * n,
		ShiftWires: s.ShiftWires * n,
		TRWires:    s.TRWires * n,
		WriteBits:  s.WriteBits * n,
		ReadBits:   s.ReadBits * n,
		TWBits:     s.TWBits * n,
		CopyBits:   s.CopyBits * n,
	}
}

// Cycles returns the device-cycle latency of the traced operation
// sequence: one cycle per control step.
func (s Stats) Cycles() int {
	return s.ShiftSteps + s.TRSteps + s.WriteSteps + s.ReadSteps + s.TWSteps + s.CopySteps + s.LogicSteps + s.StallSteps
}

// EnergyPJ returns the energy in picojoules of the traced sequence under
// the given energy table and TR window length.
func (s Stats) EnergyPJ(e params.Energy, trd params.TRD) float64 {
	return PricesFor(e, trd).EnergyPJ(s)
}

// String renders the counters compactly for logs and test output.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d", s.Cycles())
	fmt.Fprintf(&b, " shifts=%d trs=%d writes=%d reads=%d tws=%d copies=%d logic=%d stalls=%d",
		s.ShiftSteps, s.TRSteps, s.WriteSteps, s.ReadSteps, s.TWSteps, s.CopySteps, s.LogicSteps, s.StallSteps)
	fmt.Fprintf(&b, " (wire events: shift=%d tr=%d w=%d r=%d tw=%d copy=%d)",
		s.ShiftWires, s.TRWires, s.WriteBits, s.ReadBits, s.TWBits, s.CopyBits)
	return b.String()
}

// Kind names a device control step: one of the eight step counters of
// Stats, in field order. telemetry.Op's step kinds share these values.
type Kind uint8

// Step kinds.
const (
	Shift Kind = iota // DBC-wide domain-wall shift step
	TR                // transverse-read step
	Write             // access-port write step
	Read              // access-port read step
	TW                // transverse-write step
	Copy              // laterally shifted read/write step (Fig. 4(a) brown path)
	Logic             // PIM-logic / row-buffer-only step
	Stall             // idle cycle (recovery backoff); latency, no energy
)

// Prices holds the energy in picojoules of one wire event of each step
// kind, indexed by Kind: the one per-kind price behind Stats.EnergyPJ
// and every telemetry event's energy. Logic and stall steps touch no
// storage and cost none.
type Prices [Stall + 1]float64

// PricesFor returns the per-kind prices of an energy table and TR
// window length.
func PricesFor(e params.Energy, trd params.TRD) Prices {
	return Prices{
		Shift: e.ShiftPJ,
		TR:    e.TRPJ(trd),
		Write: e.WritePJ,
		Read:  e.ReadPJ,
		TW:    e.TWPJ,
		Copy:  e.ReadPJ + e.WritePJ,
	}
}

// EnergyPJ prices the wire events of s.
func (p Prices) EnergyPJ(s Stats) float64 {
	return float64(s.ShiftWires)*p[Shift] +
		float64(s.TRWires)*p[TR] +
		float64(s.WriteBits)*p[Write] +
		float64(s.ReadBits)*p[Read] +
		float64(s.TWBits)*p[TW] +
		float64(s.CopyBits)*p[Copy]
}

// Cost is a latency/energy pair used by analytic models (baselines and
// system-level experiments) where no functional trace exists.
type Cost struct {
	Cycles   int
	EnergyPJ float64
}

// Add returns the sum of two costs.
func (c Cost) Add(other Cost) Cost {
	return Cost{Cycles: c.Cycles + other.Cycles, EnergyPJ: c.EnergyPJ + other.EnergyPJ}
}

// Scale returns the cost of n repetitions.
func (c Cost) Scale(n int) Cost {
	return Cost{Cycles: c.Cycles * n, EnergyPJ: c.EnergyPJ * float64(n)}
}

// OfStats converts a functional trace into a Cost.
func OfStats(s Stats, e params.Energy, trd params.TRD) Cost {
	return Cost{Cycles: s.Cycles(), EnergyPJ: s.EnergyPJ(e, trd)}
}
