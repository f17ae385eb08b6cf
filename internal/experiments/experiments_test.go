package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline/cpu"
	"repro/internal/mem"
	"repro/internal/params"
	"repro/internal/workloads/polybench"
)

func TestIDsAndByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("%d experiments, want 11", len(ids))
	}
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("nosuch"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 11 {
		t.Fatalf("%d tables, want 11", len(tables))
	}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
			t.Errorf("table %q incomplete", tb.ID)
		}
		var sb strings.Builder
		tb.Render(&sb)
		out := sb.String()
		if !strings.Contains(out, tb.ID) || !strings.Contains(out, tb.Header[0]) {
			t.Errorf("table %q renders badly", tb.ID)
		}
	}
}

func lastCell(t *testing.T, tb *Table, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][col], 64)
	if err != nil {
		t.Fatalf("%s: %v", tb.ID, err)
	}
	return v
}

// TestFig10PaperShape holds EXPERIMENTS.md's Fig. 10 Measured cells to
// the averages Fig10 prints, at the printed digits, and keeps the
// figure's shape: every kernel benefits from PIM, and the DRAM baseline
// is slower than DWM (§V-C).
func TestFig10PaperShape(t *testing.T) {
	tb, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	avg := tb.Rows[len(tb.Rows)-1]
	rows := markdownTable(t, readExperimentsDoc(t), "## Fig. 10 — Polybench latency vs non-PIM")
	if h := rows[0]; len(h) != 3 || h[2] != "Measured" {
		t.Fatalf("header %q: want Measured in column 3", h)
	}
	rows = rows[1:]
	if len(rows) != 2 || !strings.HasPrefix(rows[0][0], "DWM") || !strings.HasPrefix(rows[1][0], "DRAM") {
		t.Fatalf("rows %q: want the DWM and DRAM baselines", rows)
	}
	for i, col := range []int{2, 3} {
		if !sameNumbers(rows[i][2], avg[col]) {
			t.Errorf("%s, Measured: EXPERIMENTS.md says %q, the experiment prints %s", rows[i][0], rows[i][2], avg[col])
		}
	}
	if lastCell(t, tb, 3) <= lastCell(t, tb, 2) {
		t.Error("DRAM baseline should be slower than DWM (§V-C)")
	}
	// Every kernel must benefit from PIM.
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 1 {
			t.Errorf("kernel %s shows no PIM latency benefit (%.2f)", row[0], v)
		}
	}
}

// TestFig11PaperShape holds EXPERIMENTS.md's Fig. 11 Measured cell to
// the average Fig11 prints in its note, at the printed digits, and
// checks every kernel benefits.
func TestFig11PaperShape(t *testing.T) {
	tb, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	rows := markdownTable(t, readExperimentsDoc(t), "## Fig. 11 — Polybench energy reduction")
	if h := rows[0]; len(h) != 3 || h[2] != "Measured" || len(rows) != 2 {
		t.Fatalf("table %q: want one row with Measured in column 3", rows)
	}
	_, printed, ok := strings.Cut(tb.Notes[0], "measured average:")
	if !ok {
		t.Fatalf("note %q: want the measured average", tb.Notes[0])
	}
	if !sameNumbers(rows[1][2], printed) {
		t.Errorf("Measured: EXPERIMENTS.md says %q, the experiment prints %s", rows[1][2], printed)
	}
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 1 {
			t.Errorf("kernel %s shows no energy benefit (%.2f)", row[0], v)
		}
	}
}

// TestFig11PinsDeviation6 pins EXPERIMENTS.md deviation 6. Fig. 11
// prices each PIM add and multiply at Table II's 111 and 164 pJ, the
// params.CPUAdd32PJ/CPUMult32PJ constants the CPU's compute also uses,
// so the simulator's traced PIM energies never enter the ratio. Traced
// per lane, a 16-lane 32-bit add costs 70.3 pJ and an 8-lane multiply
// 1896.7 pJ; priced with those, the Fig. 11 average falls from 29.45x
// to 4.84x.
func TestFig11PinsDeviation6(t *testing.T) {
	sys := mem.NewSystem(params.DefaultConfig())
	costs, err := measurePIMInstrCosts(sys)
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Cfg.Energy
	w := sys.Cfg.Geometry.TrackWidth
	addLane := costs.addPJ / float64(w/32)
	multLane := costs.multPJ / float64(w/64)
	if got := fmt.Sprintf("%d lanes %.1f pJ, %d lanes %.1f pJ", w/32, addLane, w/64, multLane); got != "16 lanes 70.3 pJ, 8 lanes 1896.7 pJ" {
		t.Errorf("traced add, multiply per lane = %s", got)
	}
	// The cause: an offloaded add and multiply cost exactly the CPU's
	// compute constants, plus staging.
	for _, o := range []cpu.OpCounts{{Adds: 1}, {Mults: 1}} {
		_, pj := pimKernelCost(o, sys, costs)
		want := float64(o.Adds)*e.CPUAdd32PJ + float64(o.Mults)*e.CPUMult32PJ +
			float64(o.Ops())/sys.LaneUtilization*costs.stagingPJPerInstr
		if pj != want {
			t.Errorf("%+v: PIM energy %.3f pJ, want Table II's %.3f", o, pj, want)
		}
	}
	var tableII, traced float64
	ks := polybench.Kernels()
	for _, k := range ks {
		o := k.Counts(k.DefaultN)
		cpuPJ := cpu.EnergyPJ(o, e)
		_, pimPJ := pimKernelCost(o, sys, costs)
		tracedPJ := pimPJ + float64(o.Adds)*(addLane-e.CPUAdd32PJ) + float64(o.Mults)*(multLane-e.CPUMult32PJ)
		tableII += cpuPJ / pimPJ
		traced += cpuPJ / tracedPJ
	}
	n := float64(len(ks))
	if got := fmt.Sprintf("%.2fx / %.2fx", tableII/n, traced/n); got != "29.45x / 4.84x" {
		t.Errorf("Fig. 11 average at Table II / traced energies = %s, want 29.45x / 4.84x", got)
	}
}

func TestTable3Anchors(t *testing.T) {
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// The CORUSCANT 5-op add row must hit the 26-cycle anchor.
	found := false
	for _, row := range tb.Rows {
		if row[0] == "CORUSCANT" && row[1] == "5op add (TR=7)" {
			found = true
			if row[2] != "26" {
				t.Errorf("5op add = %s cycles, want 26", row[2])
			}
		}
	}
	if !found {
		t.Error("5op add row missing")
	}
	if len(tb.Notes) == 0 {
		t.Error("headline ratio notes missing")
	}
}
