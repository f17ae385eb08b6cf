package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestRunExecGolden pins exec's stdout and its JSONL telemetry stream
// byte for byte against testdata: per-instruction results and costs,
// the cpim.<i> sources, the cycle stamps and the metrics report.
func TestRunExecGolden(t *testing.T) {
	jsonlPath := filepath.Join(t.TempDir(), "exec.jsonl")
	out := captureStdout(t, func() {
		if err := run([]string{"-metrics", "-jsonl", jsonlPath, "exec",
			"add b2.s10.t0.d15.r0 bs=8 k=3",
			"mult b2.s10.t0.d15.r0 bs=16 k=2",
			"xor b2.s10.t0.d15.r0 k=4",
		}); err != nil {
			t.Fatal(err)
		}
	})
	jsonl, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/exec.golden", []byte(out)},
		{"testdata/exec.jsonl.golden", jsonl},
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

func TestRunExecErrors(t *testing.T) {
	for _, args := range [][]string{
		{"exec"},
		{"exec", "bogus"},
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
