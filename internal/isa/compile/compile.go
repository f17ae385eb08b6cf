package compile

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/memory"
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

// Result is a compiled program. It owns everything it holds: nothing
// in it aliases the scratch Compile worked on.
type Result struct {
	Plan    *Plan
	Inputs  []Output // the program's live load rows, folded or not (Blocksize 0: raw)
	Outputs []Output
	Stats   PlanStats // the pricer's prediction for the emitted plan

	cfg params.Config // the configuration Plan was compiled for, for ShiftsByDBC
}

// ShiftsByDBC splits Stats.PortShifts per DBC, keyed by the telemetry
// source name (isa.DBCSource): the prediction side of the `pimasm exec
// -profile` model-vs-measured comparison. It prices the plan again on
// a fresh Pricer, the prediction Compile made from the same heads at
// rest, so a compile that never asks pays nothing for it.
func (r *Result) ShiftsByDBC() map[string]int {
	if r.Plan == nil {
		return nil
	}
	pr := memory.NewPricer(r.cfg)
	// Compile priced this plan without error, so it prices again.
	_, _ = r.Plan.price(pr)
	return pr.ShiftsByDBC()
}

// scratch is the working state of one compile: the program being
// built and every pass's buffers, one Pricer and one Lanes among them.
// Compile takes one from scratchPool and puts it back cleared, as
// memory.ExecuteBatch does its batch scratch, so a steady stream of
// compiles reuses one set of arrays and maps and allocates only what
// each Result owns. Buffers only grow: a pooled scratch is as large as
// the largest program it has compiled.
type scratch struct {
	Program
	ps  parser
	lz  legalizer
	lay layout
	sch schedule
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears every buffer that points into the compiled program or
// at the Result, so a pooled scratch keeps neither alive.
func (s *scratch) release() {
	p := &s.Program
	clear(p.slab)
	clear(p.args)
	clear(p.nodes)
	clear(p.byName)
	p.slab, p.args, p.nodes = p.slab[:0], p.args[:0], p.nodes[:0]
	p.inputs, p.outputs = nil, nil
	clear(s.ps.fields)
	s.ps.Program, s.ps.fields = nil, s.ps.fields[:0]
	clear(s.lz.nodes)
	clear(s.lz.values)
	s.lz.p, s.lz.nodes = nil, s.lz.nodes[:0]
	clear(s.lay.directFor)
	clear(s.sch.ops)
	clear(s.sch.privs)
	clear(s.sch.queued)
	s.sch.ops, s.sch.privs, s.sch.queued = s.sch.ops[:0], s.sch.privs[:0], s.sch.queued[:0]
}

// Compile parses, legalizes, places and schedules a pimasm program
// into an executable Plan. The compiled plan is result-identical to
// naive hand-placed execution; at Level >= 1 it issues fewer kernels
// and needs fewer cross-DBC row-buffer moves and shorter port
// alignment shifts. The naive
// baseline to compare against is a Level 0 compile's Stats. Compile
// fails on the verifier's errors and does not build its warnings; Vet
// returns them.
//
// Compile works on a pooled scratch and allocates only the Result: the
// Result, its input-and-output array, the Plan with its Steps, one
// request array, one operand-and-remainder array and each constant's
// packed row.
func Compile(src string, cfg params.Config, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	defer s.release()
	return s.compile(src, cfg, opt)
}

// compile runs Compile's passes on s, which must be empty: new, or
// released since its last compile.
func (s *scratch) compile(src string, cfg params.Config, opt Options) (*Result, error) {
	rec := opt.Recorder
	pass := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		return rec.Span(Source, "pimc-"+name)
	}
	prog := &s.Program
	dump := func(name string, text func() string) {
		if opt.Dump != nil {
			opt.Dump(name, text())
		}
	}

	done := pass("parse")
	err := s.parse(src, cfg.Geometry)
	done()
	if err != nil {
		return nil, err
	}
	dump("parse", prog.String)

	done = pass("verify")
	err = firstError(prog.verify(false))
	done()
	if err != nil {
		return nil, err
	}

	done = pass("legalize")
	err = s.lz.legalize(prog, cfg.TRD, opt.Level)
	done()
	if err != nil {
		return nil, err
	}
	dump("legalize", prog.String)
	dump("levels", func() string { return dumpLevels(prog) })

	done = pass("place")
	err = s.lay.place(prog, cfg, opt.Level, true)
	done()
	if err != nil {
		return nil, err
	}
	dump("place", func() string { return dumpPlacement(prog, &s.lay) })

	done = pass("schedule")
	plan, err := s.sch.build(prog, &s.lay)
	done()
	if err != nil {
		return nil, err
	}
	dump("schedule", plan.String)

	done = pass("price")
	stats, err := plan.price(s.lay.pr)
	done()
	if err != nil {
		return nil, err
	}
	stats.RowsRecycled = s.lay.recycled

	// Inputs and outputs are the source program's, whatever folding
	// made of the values between them.
	return &Result{Plan: plan, Inputs: prog.inputs, Outputs: prog.outputs, Stats: stats, cfg: cfg}, nil
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
