package compile

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// Source tags the compiler's telemetry events: one span per pass.
const Source = telemetry.Source("pimc")

// Options configures a compilation.
type Options struct {
	// Level selects the placement strategy: 0 compiles the naive
	// hand-placed layout (one PIM DBC, everything staged, every
	// statement computed as written), 1 the placement-aware layout
	// with level-barrier batches, 2 the pipelined schedule (staging
	// and store traffic folded into the batch windows, overlapping
	// with compute — same results, lower makespan). From 1 up, each
	// value is computed once and lane-exact identities are folded, so
	// no kernel is issued that can be proved redundant. At 2 a div and
	// a mod of the same operands and blocksize also share one DivMod
	// request (memory.Request.Rem); 1 keeps them apart, as the
	// level-barrier baseline -O2 is measured against. Higher levels
	// behave like 2.
	Level int
	// Recorder, when non-nil, receives one span per compiler pass.
	Recorder *telemetry.Recorder
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
	Inputs  []Output // the program's live load rows, folded or not (Blocksize 0: raw)
	Outputs []Output
	Stats   PlanStats // the pricer's prediction for the emitted plan

	// ShiftsByDBC splits Stats.PortShifts per DBC, keyed by the
	// telemetry source name (isa.DBCSource) — the prediction side of
	// the `pimasm exec -profile` model-vs-measured comparison.
	ShiftsByDBC map[string]int
}

// Compile parses, legalizes, places and schedules a pimasm program
// into an executable Plan. The compiled plan is result-identical to
// naive hand-placed execution; at Level >= 1 it issues fewer kernels
// and needs fewer cross-DBC row-buffer moves and shorter port
// alignment shifts. The naive
// baseline to compare against is a Level 0 compile's Stats. Compile
// fails on the verifier's errors and drops its warnings; Vet returns
// them.
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
	err = firstError(prog.Verify())
	done()
	if err != nil {
		return nil, err
	}

	done = pass("legalize")
	err = prog.legalize(cfg.TRD, opt.Level)
	done()
	if err != nil {
		return nil, err
	}
	dump("legalize", prog.String)
	dump("levels", func() string { return dumpLevels(prog) })

	done = pass("place")
	lay, err := prog.place(cfg, opt.Level, true)
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

	done = pass("price")
	stats, err := plan.price(lay.pr)
	done()
	if err != nil {
		return nil, err
	}
	stats.RowsRecycled = lay.recycled

	// Inputs and outputs are the source program's, whatever folding
	// made of the values between them.
	res := &Result{Plan: plan, Inputs: prog.inputs, Stats: stats, ShiftsByDBC: lay.pr.ShiftsByDBC()}
	for _, n := range prog.nodes {
		if n.kind == nStore {
			res.Outputs = append(res.Outputs, Output{Name: n.srcName, Addr: n.addr, Blocksize: n.bs})
		}
	}
	return res, nil
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
	for _, x := range lay.pool {
		fmt.Fprintf(&b, " %s", isa.FormatAddr(x.base))
		if x.comp != x.base {
			fmt.Fprintf(&b, "+%s", isa.FormatAddr(x.comp))
		}
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
	return b.String()
}
