package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

func TestRunAsmDis(t *testing.T) {
	if err := run([]string{"asm", "add", "b2.s10.t0.d15.r0", "bs=8", "k=3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"dis", "0x00400f0284a"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"ops"}); err != nil {
		t.Fatal(err)
	}
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"asm"},
		{"asm", "bogus instruction"},
		{"dis"},
		{"dis", "zzz"},
		{"frob"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunVetArity: vet rejects the operand counts legalization rejects,
// on the line exec would fail on.
func TestRunVetArity(t *testing.T) {
	dir := t.TempDir()
	for i, src := range []string{
		"%a = li 1 bs=8\n%b = not %a, %a bs=8\nstore %b, b0.s0.t1.d0.r0\n",
		"%a = li 1 bs=8\n%c = li 2 bs=8\n%b = vote %a, %c bs=8\nstore %b, b0.s0.t1.d0.r0\n",
	} {
		path := filepath.Join(dir, fmt.Sprintf("p%d.pimasm", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		out := captureStdout(t, func() { err = run([]string{"vet", path}) })
		if err == nil || !strings.Contains(out, "error: arity") {
			t.Errorf("vet of\n%s= %v, printed %q; want an arity error", src, err, out)
		}
	}
}

func TestRunExec(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "exec.json")
	err := run([]string{"-trace", tracePath, "-metrics", "exec",
		"add b2.s10.t0.d15.r0 bs=8 k=3",
		"xor b2.s10.t0.d15.r0 k=4",
		"mult b2.s10.t0.d15.r0 bs=16 k=2",
		"vote b2.s10.t0.d15.r0 k=3",
		"relu b2.s10.t0.d15.r0 bs=8 k=1",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	var sawCpim bool
	for _, r := range records {
		if r.Ph == "B" && r.Name == "cpim-add" {
			sawCpim = true
		}
	}
	if !sawCpim {
		t.Error("no cpim-add span in exec trace")
	}
}

const testProg = `; pimc smoke program
%a = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%k = li 3 bs=8
%s = add %a, %b bs=8
%d = sub %s, %k bs=8
%h = shr %d bs=8 imm=1
store %h, b0.s0.t2.d0.r3
`

func TestRunCompileProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.pim")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"compile", path},
		{"-O", "0", "compile", path},
		{"-dump", "compile", path},
	} {
		if err := run(args); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
	}
}

func TestRunExecProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.pim")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "exec.json")
	if err := run([]string{"-trace", tracePath, "-metrics", "exec", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	saw := make(map[string]bool)
	for _, r := range records {
		if r.Ph == "B" {
			saw[r.Name] = true
		}
	}
	for _, want := range []string{"pimc-parse", "pimc-legalize", "pimc-place", "pimc-schedule"} {
		if !saw[want] {
			t.Errorf("no %s span in exec trace", want)
		}
	}

	// Bad program: error carries the line number.
	bad := filepath.Join(dir, "bad.pim")
	if err := os.WriteFile(bad, []byte("%a = li 1 bs=8\n%a = li 2 bs=8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"exec", bad}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad program: err = %v, want line 2", err)
	}
}

// TestRunExecGolden pins exec's stdout and its Chrome trace byte for
// byte against testdata: per-instruction results and costs, the
// cpim.<i> sources, the cycle stamps and the metrics report.
func TestRunExecGolden(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "exec.trace.json")
	out := captureStdout(t, func() {
		if err := run([]string{"-metrics", "-trace", tracePath, "exec",
			"add b2.s10.t0.d15.r0 bs=8 k=3",
			"mult b2.s10.t0.d15.r0 bs=16 k=2",
			"xor b2.s10.t0.d15.r0 k=4",
		}); err != nil {
			t.Fatal(err)
		}
	})
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/exec.golden", []byte(out)},
		{"testdata/exec.trace.golden", trace},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s mismatch:\ngot:\n%s\nwant:\n%s", c.golden, c.got, want)
		}
	}
}

// TestRunProgramGolden pins pimasm's report on the example programs
// byte for byte against testdata/programs.golden: `exec` at -O0, -O1
// and -O2 (plan summary, cost model, vs-naive baseline, stored outputs
// and measured counters) and the -O2 `-dump compile` pass output.
func TestRunProgramGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "pimasm", "*.pimasm"))
	if err != nil || len(files) != 3 {
		t.Fatalf("example corpus: %d programs, %v", len(files), err)
	}
	var got strings.Builder
	for _, f := range files {
		for _, args := range [][]string{
			{"-O", "0", "exec"},
			{"-O", "1", "exec"},
			{"-O", "2", "exec"},
			{"-O", "2", "-dump", "compile"},
		} {
			fmt.Fprintf(&got, "$ pimasm %s %s\n", strings.Join(args, " "), filepath.Base(f))
			got.WriteString(captureStdout(t, func() {
				if err := run(append(args, f)); err != nil {
					t.Fatalf("%v %s: %v", args, f, err)
				}
			}))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "programs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("report mismatch:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestExecReadWriteBypass pins the read/write/nop bypass: on one unit
// a write and then a read of the same row return the written row, and
// exec prints each bypass instruction's cost.
func TestExecReadWriteBypass(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	u, err := pim.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := pim.MustPackLanes([]uint64{0xAB, 0xCD, 0x12, 0x34}, 8, 32)
	write := isa.Instruction{Op: isa.OpWrite, Src: isa.Addr{Row: 9}, Operands: 1}
	if _, err := execInstr(u, cfg.Geometry, write, []dbc.Row{row}); err != nil {
		t.Fatal(err)
	}
	got, err := execInstr(u, cfg.Geometry, isa.Instruction{Op: isa.OpRead, Src: isa.Addr{Row: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(row) {
		t.Fatalf("read-back = %v, want %v", got, row)
	}

	out := captureStdout(t, func() {
		if err := run([]string{"exec",
			"write b0.s0.t0.d15.r9 bs=8 k=1",
			"read b0.s0.t0.d15.r9 bs=8",
			"nop b0.s0.t0.d15.r0",
		}); err != nil {
			t.Fatal(err)
		}
	})
	const want = `write b0.s0.t0.d15.r9
  cost: 4 cycles, 204.8 pJ
read b0.s0.t0.d15.r9
  cost: 4 cycles, 194.6 pJ
nop b0.s0.t0.d15.r0
  cost: 0 cycles, 0.0 pJ
`
	if out != want {
		t.Errorf("exec printed\n%s\nwant\n%s", out, want)
	}
}

func TestRunExecErrors(t *testing.T) {
	for _, args := range [][]string{
		{"exec"},
		{"exec", "bogus"},
		{"exec", "write b0.s0.t0.d15.r9 bs=8 k=0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunExecProfile checks the -profile model-vs-measured report:
// exec prints both columns, compile only the prediction column, and
// the flag is rejected for raw instruction streams (there is no
// placement model to compare against).
func TestRunExecProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.pim")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := run([]string{"-profile", "exec", path}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "model vs measured shift steps per DBC") {
		t.Errorf("exec -profile output lacks the comparison table:\n%s", out)
	}
	for _, col := range []string{"MODEL", "MEASURED", "DELTA", "total"} {
		if !strings.Contains(out, col) {
			t.Errorf("exec -profile output lacks %q:\n%s", col, out)
		}
	}

	out = captureStdout(t, func() {
		if err := run([]string{"-profile", "compile", path}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "predicted shift steps per DBC") {
		t.Errorf("compile -profile output lacks the prediction table:\n%s", out)
	}
	if strings.Contains(out, "MEASURED") {
		t.Errorf("compile -profile must not claim measurements:\n%s", out)
	}

	if err := run([]string{"-profile", "exec", "add b2.s10.t0.d15.r0 bs=8 k=3"}); err == nil {
		t.Error("-profile accepted for a raw instruction stream")
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
