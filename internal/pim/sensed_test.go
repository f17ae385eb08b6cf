package pim

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// composedKernels are the Unit's exported kernels outside
// windowKernels: the adds and the tournament that take more operands
// than one window holds, the full-shift max ablation, the per-step
// voted add, and the kernels that charge no whole-DBC TR.
var composedKernels = []kernel{
	{"addlarge", func(u *Unit) error { _, err := u.AddLarge(zeroRows(u, 2*int(u.TRD())+3), 8); return err }},
	{"addchained", func(u *Unit) error { _, err := u.AddChained(zeroRows(u, 2*int(u.TRD())+3), 8); return err }},
	{"maxlarge", func(u *Unit) error { _, err := u.MaxLarge(zeroRows(u, int(u.TRD())+2), 8); return err }},
	{"maxfullshift", func(u *Unit) error { _, err := u.MaxTRFullShift(zeroRows(u, 3), 8); return err }},
	{"addnmr3", func(u *Unit) error { _, err := u.AddMultiNMR(3, zeroRows(u, 2), 8); return err }},
	{"constmult", func(u *Unit) error { _, err := u.ConstMultiply(dbc.NewRow(u.Width()), 11, 8); return err }},
	{"shl", func(u *Unit) error { _, err := u.LogicalShift(dbc.NewRow(u.Width()), 3, 8, true); return err }},
	{"relu", func(u *Unit) error { _, err := u.ReLU(dbc.NewRow(u.Width()), 8); return err }},
}

// TestEveryChargedTRIsSensed holds every exported kernel to the rule
// that a whole-DBC transverse read it charges is one the DBC performs:
// with every TR level perturbed (TR fault rate 1), each OpTR step
// sensing all wires must come with a tr-level fault instant on all
// wires at the same cycle, which only dbc.TRAllPlanesInto emits. A step
// charged without sensing (a host-side count or complement) has no
// fault instant. Each kernel runs at TRD 3, 5 and 7 from head offsets
// 0, +1 and TRD+1, the last past the band where a kernel walks the head
// back to rest before it touches the window.
func TestEveryChargedTRIsSensed(t *testing.T) {
	const width = 64
	kernels := append(append([]kernel(nil), windowKernels...), composedKernels...)
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for i, k := range kernels {
			for _, entry := range []int{0, 1, int(trd) + 1} {
				cfg := testConfig(trd, width)
				u := MustNewUnit(cfg)
				ring := telemetry.NewRingSink(1 << 14)
				u.SetTelemetry(telemetry.NewRecorder(cfg, ring), "probe")
				if err := u.D.Shift(entry); err != nil {
					t.Fatal(err)
				}
				u.D.SetFaultInjector(device.NewFaultInjector(1, 0, int64(i+1)))
				if err := k.run(u); err != nil {
					t.Fatalf("%v %s from %+d: %v", trd, k.name, entry, err)
				}
				sensed := map[uint64]bool{}
				for _, e := range ring.Events() {
					if e.Op == telemetry.OpFault && e.Name == "tr-level" && e.Wires == width {
						sensed[e.Cycle] = true
					}
				}
				for _, e := range ring.Events() {
					if e.Op == telemetry.OpTR && e.Phase == telemetry.PhaseStep && e.Wires == width && !sensed[e.Cycle] {
						t.Errorf("%v %s from %+d: whole-DBC TR charged at cycle %d is not sensed", trd, k.name, entry, e.Cycle)
					}
				}
			}
		}
	}
}
