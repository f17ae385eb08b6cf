package compile

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// Source tags the compiler's telemetry events (pass spans and the
// moves-saved / shifts-saved marks).
const Source = telemetry.Source("pimc")

// DefaultExecDBCs is how many PIM-enabled DBCs the -O1 placement
// spreads each DAG level across when Options.ExecDBCs is zero.
const DefaultExecDBCs = 4

// Options configures a compilation.
type Options struct {
	// Level selects the placement strategy: 0 compiles the naive
	// hand-placed layout (one PIM DBC, everything staged), 1 the
	// placement-aware layout with level-barrier batches, 2 the
	// pipelined schedule (staging and store traffic folded into the
	// batch windows, overlapping with compute — same results, lower
	// makespan). Higher levels behave like 2.
	Level int
	// ExecDBCs bounds the PIM DBCs the -O1 placement uses per level
	// (default DefaultExecDBCs, clamped to the geometry).
	ExecDBCs int
	// NoRecycle disables liveness-driven home-row recycling at -O1
	// (for ablation; recycling is what lets long programs fit the
	// bank's free rows). The naive layout never recycles.
	NoRecycle bool
	// Recorder, when non-nil, receives per-pass spans and — at -O1 —
	// "moves-saved" / "shifts-saved" marks quantifying the placement
	// win over the naive layout.
	Recorder *telemetry.Recorder
	// Diag, when non-nil, receives every warning-severity verifier
	// diagnostic (dead-store, unreachable-result). Error-severity
	// diagnostics abort compilation regardless.
	Diag func(Diag)
	// Dump, when non-nil, is called after each pass with its name
	// ("parse", "legalize", "levels", "place", "schedule") and a
	// textual rendering of the pass output.
	Dump func(pass, text string)
}

// Output describes one store of the compiled program: after Plan.Run
// the row at Addr holds the lanes of the named register. Blocksize is
// the lane width, or 0 when the stored value is a raw loaded row.
type Output struct {
	Name      string
	Addr      isa.Addr
	Blocksize int
}

// Result is a compiled program.
type Result struct {
	Plan    *Plan
	Inputs  []Output // the program's live load rows (Blocksize 0: raw)
	Outputs []Output
	Stats   PlanStats // cost model of the emitted plan
	Naive   PlanStats // cost model of the naive layout (Level >= 1 only)

	// ShiftsByDBC splits Stats.PortShifts per DBC, keyed by the
	// telemetry source name (isa.DBCSource) — the prediction side of
	// the `pimasm exec -profile` model-vs-measured comparison.
	ShiftsByDBC map[string]int
}

// Compile parses, legalizes, places and schedules a pimasm program
// into an executable Plan. The compiled plan is result-identical to
// naive hand-placed execution; at Level >= 1 it needs fewer cross-DBC
// row-buffer moves and shorter port alignment shifts.
func Compile(src string, cfg params.Config, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rec := opt.Recorder
	pass := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		return rec.Span(Source, "pimc-"+name)
	}
	dump := func(name string, text func() string) {
		if opt.Dump != nil {
			opt.Dump(name, text())
		}
	}

	done := pass("parse")
	prog, err := Parse(src, cfg.Geometry)
	done()
	if err != nil {
		return nil, err
	}
	dump("parse", prog.String)

	done = pass("verify")
	diags := prog.Verify()
	done()
	if err := firstError(diags); err != nil {
		return nil, err
	}
	if opt.Diag != nil {
		for _, d := range diags {
			opt.Diag(d)
		}
	}

	done = pass("legalize")
	err = prog.legalize(cfg.TRD)
	done()
	if err != nil {
		return nil, err
	}
	dump("legalize", prog.String)
	dump("levels", func() string { return dumpLevels(prog) })

	execDBCs := opt.ExecDBCs
	if execDBCs <= 0 {
		execDBCs = DefaultExecDBCs
	}
	done = pass("place")
	lay, err := prog.place(cfg, opt.Level, execDBCs, !opt.NoRecycle)
	done()
	if err != nil {
		return nil, err
	}
	dump("place", func() string { return dumpPlacement(prog, lay) })

	done = pass("schedule")
	plan, err := buildPlan(prog, lay)
	done()
	if err != nil {
		return nil, err
	}
	dump("schedule", plan.String)

	res := &Result{Plan: plan, Stats: plan.Stats, ShiftsByDBC: lay.shiftsBySource()}
	for _, n := range prog.nodes {
		switch n.kind {
		case nLoad:
			res.Inputs = append(res.Inputs, Output{Name: n.name, Addr: n.addr})
		case nStore:
			res.Outputs = append(res.Outputs, Output{Name: n.srcName, Addr: n.addr, Blocksize: n.args[0].bs})
		}
	}
	if opt.Level >= 1 {
		// Price the same program under the naive layout so the
		// placement win is visible in telemetry without running both.
		// The comparison is advisory: a program that only fits the
		// bank's rows via recycling has no naive layout to price, so a
		// pricing failure leaves Naive zero instead of failing the
		// compilation that already succeeded.
		if naive, err := prog.priceNaive(cfg); err == nil {
			res.Naive = naive
			if rec != nil {
				rec.Mark(Source, "moves-saved", max(0, naive.CrossDBCMoves-plan.Stats.CrossDBCMoves))
				rec.Mark(Source, "shifts-saved", max(0, naive.PortShifts-plan.Stats.PortShifts))
			}
		}
	}
	return res, nil
}

// priceNaive places the program under the naive layout and returns its
// cost model. It overwrites every node's placement (home, exec,
// direct), so Compile calls it only once the plan, the inputs, the
// outputs and the per-DBC shift split are built: nothing reads the
// primary placement after that.
func (p *Program) priceNaive(cfg params.Config) (PlanStats, error) {
	for _, n := range p.nodes {
		n.home, n.exec, n.direct = isa.Addr{}, isa.Addr{}, false
	}
	lay, err := p.place(cfg, 0, 1, false)
	if err != nil {
		return PlanStats{}, err
	}
	return lay.stats, nil
}

func dumpLevels(p *Program) string {
	var b strings.Builder
	deepest := p.levelize()
	for lv := 0; lv <= deepest; lv++ {
		var names []string
		for _, n := range p.nodes {
			if n.kind != nStore && n.level == lv {
				names = append(names, "%"+n.name)
			}
		}
		fmt.Fprintf(&b, "L%d: %s\n", lv, strings.Join(names, " "))
	}
	return b.String()
}

func dumpPlacement(p *Program, lay *layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec bank %d, pool:", lay.execBank)
	for _, e := range lay.pool {
		fmt.Fprintf(&b, " %s", isa.FormatAddr(e))
	}
	b.WriteByte('\n')
	for _, n := range p.nodes {
		switch n.kind {
		case nLoad, nConst:
			fmt.Fprintf(&b, "%%%s: home %s\n", n.name, isa.FormatAddr(n.home))
		case nOp:
			fmt.Fprintf(&b, "%%%s: exec %s home %s\n", n.name, isa.FormatAddr(n.exec), isa.FormatAddr(n.home))
		case nStore:
			mode := "copy"
			if n.direct {
				mode = "direct"
			}
			fmt.Fprintf(&b, "store %%%s -> %s (%s)\n", n.args[0].name, isa.FormatAddr(n.addr), mode)
		}
	}
	fmt.Fprintf(&b, "cost: %d cross-DBC moves, %d port shifts\n",
		lay.stats.CrossDBCMoves, lay.stats.PortShifts)
	return b.String()
}
