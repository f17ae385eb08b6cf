// Command pimasm assembles, disassembles, compiles and executes cpim
// programs (§III-E), the instruction-set extension a CPU drives the
// memory controller with.
//
// Usage:
//
//	pimasm asm "add b2.s10.t0.d15.r0 bs=8 k=3"
//	pimasm dis <hexword>
//	pimasm ops                     # list mnemonics and limits
//	pimasm exec "add ... k=3" ...  # run instructions on a PIM unit
//	pimasm vet prog.pim ...        # verify programs without compiling
//	pimasm compile prog.pim        # compile a pimasm program (pimc)
//	pimasm exec prog.pim           # compile and run it on a memory
//
// exec with instruction strings drives each one, in order, on one PIM
// unit with deterministic operand lanes and reports the result values
// plus the cycle/energy accounting of exactly that instruction: read,
// write and nop move rows through an access port, and every other
// opcode runs its kernel through isa.Dispatch, the kernel map the
// memory controller (internal/memory) runs.
//
// vet runs only the pimc front end and dataflow verifier over each
// file, printing every line-numbered diagnostic (use-before-def and
// width-overflow are errors; dead stores and unreachable results are
// warnings) and exits non-zero if any file has an error. compile runs
// the same verifier automatically and fails on its errors.
//
// exec with a program file (or compile, which stops before running)
// feeds the pimc compiler: -O selects the placement level (0 = naive
// hand-placed layout, 1 = placement-aware, 2 = pipelined batch windows
// with overlapped staging; default 1) and -dump prints each compiler
// pass's output. The measured line reports both total cycles and the
// makespan — the critical-path cycles after batch windows overlap
// disjoint lanes; -O 2 exists to drive the makespan down. Telemetry
// flags apply to both modes:
//
//	pimasm -trace out.json exec "add b2.s10.t0.d15.r0 bs=8 k=3"
//	pimasm -metrics -O 1 -dump compile prog.pim
//	pimasm -metrics exec prog.pim
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pimasm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pimasm", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file for exec (open in Perfetto)")
	metrics := fs.Bool("metrics", false, "print the telemetry metrics report after exec")
	level := fs.Int("O", 1, "pimc placement level: 0 naive, 1 placement-aware, 2 pipelined windows")
	dump := fs.Bool("dump", false, "print each pimc compiler pass's output")
	prof := fs.Bool("profile", false, "print the placement model's predicted vs profiled measured shift steps per DBC (program files only)")
	fs.Usage = func() {
		fmt.Println("usage: pimasm [flags] asm \"<op> <addr> [bs=N] [k=N]\" | dis <hexword> | ops | vet <file>... | compile <file> | exec <instr>...|<file>")
		fmt.Println("flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return nil
	}
	cfg := params.DefaultConfig()
	switch args[0] {
	case "asm":
		if len(args) < 2 {
			return fmt.Errorf("asm needs an instruction string")
		}
		in, err := isa.ParseInstruction(strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		word, err := in.Encode(cfg.Geometry, cfg.TRD)
		if err != nil {
			return err
		}
		fmt.Printf("%#011x  ; %s\n", word, isa.FormatInstruction(in))
		return nil
	case "dis":
		if len(args) < 2 {
			return fmt.Errorf("dis needs a hex word")
		}
		word, err := strconv.ParseUint(strings.TrimPrefix(args[1], "0x"), 16, 64)
		if err != nil {
			return err
		}
		in := isa.Decode(word)
		if err := in.Validate(cfg.Geometry, cfg.TRD); err != nil {
			return fmt.Errorf("decoded instruction invalid: %w", err)
		}
		fmt.Println(isa.FormatInstruction(in))
		return nil
	case "ops":
		fmt.Println("mnemonics: nop read write and or nand nor xor xnor not add mult max relu vote div mod shl shr fma")
		fmt.Println("pimc-only: sub (lowered to not + add-with-one); shl/shr carry imm=<amount>")
		fmt.Printf("blocksizes: %v\n", params.BlockSizes)
		fmt.Printf("operands: 1..%d (TRD=%d)\n", cfg.TRD.MaxBulkOperands(), int(cfg.TRD))
		return nil
	case "vet":
		if len(args) < 2 {
			return fmt.Errorf("vet needs program files")
		}
		return vetProgs(cfg, args[1:])
	case "compile":
		if len(args) < 2 {
			return fmt.Errorf("compile needs a program file")
		}
		return compileProg(cfg, args[1], *level, *dump, *tracePath, *metrics, false, *prof)
	case "exec":
		if len(args) < 2 {
			return fmt.Errorf("exec needs instruction strings or a program file")
		}
		if len(args) == 2 {
			if _, err := os.Stat(args[1]); err == nil {
				return compileProg(cfg, args[1], *level, *dump, *tracePath, *metrics, true, *prof)
			}
		}
		if *prof {
			return fmt.Errorf("-profile compares the placement model against a profiled run, so it needs a program file")
		}
		return exec(cfg, args[1:], *tracePath, *metrics)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// vetProgs verifies each program file and prints its diagnostics as
// "file:line: class: severity: message". Warnings alone exit zero;
// any error makes the whole run fail after every file has printed.
func vetProgs(cfg params.Config, paths []string) error {
	bad := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		diags := compile.Vet(string(src), cfg)
		for _, d := range diags {
			fmt.Printf("%s:%s\n", path, strings.TrimPrefix(d.String(), "line "))
			if d.Err {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("vet: %d error(s)", bad)
	}
	return nil
}

// newRecorder wires the telemetry flags into a recorder (nil when no
// flag asked for one), the trace file to close afterwards (nil without
// -trace) and the hardware profiler behind -metrics and -profile (nil
// unless profiled).
func newRecorder(cfg params.Config, tracePath string, profiled bool) (*telemetry.Recorder, *profile.Profiler, *os.File, error) {
	var sinks []telemetry.Sink
	var file *os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, nil, err
		}
		file = f
		sinks = append(sinks, telemetry.NewChromeSink(f))
	}
	var prof *profile.Profiler
	if profiled {
		prof = profile.New(cfg)
		sinks = append(sinks, prof)
	}
	var rec *telemetry.Recorder
	if len(sinks) > 0 {
		rec = telemetry.NewRecorder(cfg, sinks...)
	}
	return rec, prof, file, nil
}

// finish closes the recorder, then the trace file, and prints the
// profiler's metrics report when asked and nothing failed.
func finish(rec *telemetry.Recorder, prof *profile.Profiler, file *os.File, metrics bool, runErr error) error {
	if err := rec.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if file != nil {
		if err := file.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr == nil && metrics {
		runErr = prof.WriteText(os.Stdout)
	}
	return runErr
}

// compileProg compiles a pimasm program file through pimc and, when run
// is set, executes the plan on a fresh memory with deterministic input
// rows and prints every stored output.
func compileProg(cfg params.Config, path string, level int, dump bool, tracePath string, metrics, run, profiled bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, prof, file, err := newRecorder(cfg, tracePath, metrics || profiled && run)
	if err != nil {
		return err
	}
	runErr := func() error {
		opts := compile.Options{Level: level, Recorder: rec}
		if dump {
			opts.Dump = func(pass, text string) {
				fmt.Printf("--- %s ---\n%s", pass, text)
			}
		}
		res, err := compile.Compile(string(src), cfg, opts)
		if err != nil {
			return err
		}
		fmt.Printf("plan (-O%d): %d steps, %d requests in %d batches\n",
			level, len(res.Plan.Steps), res.Stats.Requests, res.Stats.Batches)
		fmt.Printf("cost model: %d cross-DBC moves, %d shift steps, %d cycles, makespan %d\n",
			res.Stats.CrossDBCMoves, res.Stats.PortShifts, res.Stats.Cycles, res.Stats.Makespan)
		if level >= 1 {
			// The naive baseline is the -O0 compile of the same program.
			// A program that fits the bank's rows only by recycling has
			// none, and the line is left out.
			if naive, err := compile.Compile(string(src), cfg, compile.Options{}); err == nil {
				n := naive.Stats
				fmt.Printf("vs naive:   %d cross-DBC moves, %d shift steps, %d cycles (saved %d moves, %d shifts, %d cycles)\n",
					n.CrossDBCMoves, n.PortShifts, n.Cycles,
					n.CrossDBCMoves-res.Stats.CrossDBCMoves,
					n.PortShifts-res.Stats.PortShifts,
					n.Cycles-res.Stats.Cycles)
			}
		}
		if !run {
			if profiled {
				writeProfileReport(os.Stdout, res.ShiftsByDBC(), nil)
			}
			if !dump {
				fmt.Print(res.Plan.String())
			}
			return nil
		}
		m, err := memory.New(cfg)
		if err != nil {
			return err
		}
		if rec != nil {
			m.SetTelemetry(rec)
		}
		width := cfg.Geometry.TrackWidth
		for i, in := range res.Inputs {
			lanes := make([]uint64, width/8)
			for j := range lanes {
				lanes[j] = uint64(7*i+3*j+1) % 256
			}
			row, err := pim.PackLanes(lanes, 8, width)
			if err != nil {
				return err
			}
			if err := m.WriteRow(in.Addr, row); err != nil {
				return err
			}
		}
		if err := res.Plan.Run(m); err != nil {
			return err
		}
		for _, out := range res.Outputs {
			row, err := m.ReadRow(out.Addr)
			if err != nil {
				return err
			}
			if out.Blocksize > 0 {
				vals := pim.UnpackLanes(row, out.Blocksize)
				fmt.Printf("%%%s @ %s (bs=%d): %v\n", out.Name, isa.FormatAddr(out.Addr), out.Blocksize, preview(vals, 8))
			} else {
				fmt.Printf("%%%s @ %s: raw row\n", out.Name, isa.FormatAddr(out.Addr))
			}
		}
		moves, stats := m.Moves(), m.Stats()
		fmt.Printf("measured: %d row copies, %d shift steps, %d cycles, makespan %d\n",
			moves.RowCopies, stats.ShiftSteps, stats.Cycles(), m.Recorder().Makespan())
		if profiled {
			writeProfileReport(os.Stdout, res.ShiftsByDBC(), prof.ShiftStepsBySource())
		}
		return nil
	}()
	return finish(rec, prof, file, metrics, runErr)
}

// exec parses each instruction string and runs the stream in order on
// one PIM unit, synthesizing deterministic operand rows, so the encoded
// stream's cost and behaviour can be inspected without writing a
// program. Instruction i records under telemetry source cpim.<i>.
func exec(cfg params.Config, instrs []string, tracePath string, metrics bool) error {
	rec, prof, file, err := newRecorder(cfg, tracePath, metrics)
	if err != nil {
		return err
	}

	runErr := func() error {
		ins := make([]isa.Instruction, len(instrs))
		for i, text := range instrs {
			in, err := isa.ParseInstruction(text)
			if err != nil {
				return err
			}
			ins[i] = in
		}
		u, err := pim.NewUnit(cfg)
		if err != nil {
			return err
		}
		for i, in := range ins {
			// Realign the access port to row 0 with telemetry detached, so
			// an instruction's shift cost never depends on the ones before
			// it (the realignment models operand staging, which is not part
			// of the measured instruction).
			u.SetTelemetry(nil, "")
			if _, err := u.D.Align(0, device.Left); err != nil {
				return err
			}
			u.SetTelemetry(rec, telemetry.Source(fmt.Sprintf("cpim.%d", i)))
			u.ResetStats()
			row, err := execInstr(u, cfg.Geometry, in, operandRows(cfg.Geometry.TrackWidth, in))
			if err != nil {
				return err
			}
			stats := u.Stats()
			fmt.Printf("%s\n", isa.FormatInstruction(in))
			if bs := laneWidth(in); bs > 0 && row.N > 0 {
				vals := pim.UnpackLanes(row, bs)
				fmt.Printf("  result lanes (bs=%d): %v\n", bs, preview(vals, 8))
			}
			fmt.Printf("  cost: %d cycles, %.1f pJ\n", stats.Cycles(), stats.EnergyPJ(cfg.Energy, cfg.TRD))
		}
		return nil
	}()

	runErr = finish(rec, prof, file, metrics, runErr)
	if tracePath != "" && runErr == nil {
		fmt.Fprintf(os.Stderr, "pimasm: wrote %s (open in https://ui.perfetto.dev)\n", tracePath)
	}
	return runErr
}

// execInstr runs one instruction on u over operand rows already staged
// in its DBC, under a cpim-<op> span, and returns the result row. Read,
// write and nop bypass the PIM logic (the orange path of Fig. 4(a)):
// read and write move the addressed row through its nearest port;
// every other opcode runs its kernel through isa.Dispatch.
func execInstr(u *pim.Unit, g params.Geometry, in isa.Instruction, operands []dbc.Row) (dbc.Row, error) {
	if err := in.Validate(g, u.TRD()); err != nil {
		return dbc.Row{}, err
	}
	if in.Op != isa.OpRead && in.Op != isa.OpNop && len(operands) != in.Operands {
		return dbc.Row{}, fmt.Errorf("isa: %v expects %d operands, got %d", in.Op, in.Operands, len(operands))
	}
	defer u.Span("cpim-" + in.Op.String())()
	switch in.Op {
	case isa.OpNop:
		return dbc.Row{}, nil
	case isa.OpRead:
		side, _, err := u.D.AlignNearest(in.Src.Row)
		if err != nil {
			return dbc.Row{}, err
		}
		return u.D.ReadPort(side), nil
	case isa.OpWrite:
		if len(operands) == 0 {
			return dbc.Row{}, fmt.Errorf("write needs the row to write (k=1), got k=%d", in.Operands)
		}
		if err := u.D.WriteRow(in.Src.Row, operands[0]); err != nil {
			return dbc.Row{}, err
		}
		return operands[0], nil
	}
	res, _, err := isa.Dispatch(u, in, operands)
	return res, err
}

// operandRows synthesizes deterministic operand rows for an exec
// instruction: lane j of operand i holds (7i+3j+1) mod 2^min(bs,8), so
// results are reproducible and non-trivial.
func operandRows(width int, in isa.Instruction) []dbc.Row {
	bs := laneWidth(in)
	if bs == 0 {
		bs = 8
	}
	valBits := bs
	if in.Op == isa.OpMult {
		valBits = bs / 2 // multiplier lanes carry bs/2-bit inputs
	}
	if valBits > 8 {
		valBits = 8
	}
	mod := uint64(1) << uint(valBits)
	rows := make([]dbc.Row, in.Operands)
	for i := range rows {
		lanes := make([]uint64, width/bs)
		for j := range lanes {
			lanes[j] = uint64(7*i+3*j+1) % mod
		}
		r, err := pim.PackLanes(lanes, bs, width)
		if err != nil {
			// Lane widths are validated by the instruction parser, so
			// packing can only fail on a geometry mismatch; surface it
			// as an empty operand and let Execute report the error.
			return rows
		}
		if in.Op == isa.OpVote && i > 0 {
			r = rows[0] // identical replicas vote cleanly
		}
		rows[i] = r
	}
	return rows
}

// laneWidth returns the lane size results should be unpacked at, or 0
// when the op has no lane structure.
func laneWidth(in isa.Instruction) int {
	switch in.Op {
	case isa.OpNop, isa.OpRead, isa.OpWrite, isa.OpVote,
		isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpNot:
		return 0
	}
	return in.Blocksize
}

// preview truncates a slice for display.
func preview(vals []uint64, n int) []uint64 {
	if len(vals) <= n {
		return vals
	}
	return vals[:n]
}

// writeProfileReport prints the model-vs-measured shift table per DBC:
// the cost model's predicted shift steps (port alignment and kernel
// shifts) against the shift steps the hardware profiler measured during
// the run. The measurement also covers the input-seeding writes before
// the plan and the output reads after it, which the model does not
// price, so the program's load and store DBCs read a few steps over. measured may be nil (compile without exec), which prints
// the prediction column only.
// The two sides are joined on the isa.DBCSource name, so staging DBCs
// the model priced and DBCs only the runtime touched both show up.
func writeProfileReport(w io.Writer, model map[string]int, measured map[string]uint64) {
	names := make(map[string]bool, len(model)+len(measured))
	for n := range model {
		names[n] = true
	}
	for n := range measured {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	if measured == nil {
		fmt.Fprintln(w, "profile: predicted shift steps per DBC")
		fmt.Fprintf(w, "  %-20s %8s\n", "DBC", "MODEL")
		total := 0
		for _, n := range sorted {
			fmt.Fprintf(w, "  %-20s %8d\n", n, model[n])
			total += model[n]
		}
		fmt.Fprintf(w, "  %-20s %8d\n", "total", total)
		return
	}
	fmt.Fprintln(w, "profile: model vs measured shift steps per DBC")
	fmt.Fprintf(w, "  %-20s %8s %8s %8s\n", "DBC", "MODEL", "MEASURED", "DELTA")
	var mTotal, sTotal int64
	for _, n := range sorted {
		mod, meas := int64(model[n]), int64(measured[n])
		fmt.Fprintf(w, "  %-20s %8d %8d %+8d\n", n, mod, meas, meas-mod)
		mTotal += mod
		sTotal += meas
	}
	fmt.Fprintf(w, "  %-20s %8d %8d %+8d\n", "total", mTotal, sTotal, sTotal-mTotal)
}
