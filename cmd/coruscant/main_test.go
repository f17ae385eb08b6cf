package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from this run")

// TestRunAllGolden pins `coruscant all` byte for byte against
// testdata/all.golden: every paper table, figure and note the
// experiments regenerate. Re-capture it with
// `go test ./cmd/coruscant -run TestRunAllGolden -update`, and give
// each changed line its reason in CHANGES.md.
func TestRunAllGolden(t *testing.T) {
	got := captureStdout(t, func() {
		if err := run([]string{"all"}); err != nil {
			t.Fatal(err)
		}
	})
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\ngot:  %q\nwant: %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run([]string{"nosuch-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiple(t *testing.T) {
	if err := run([]string{"table1", "sens"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDemo pins the demo's three trace lines, the add, multiply and
// max counts of its unit, with and without -metrics: the unit counts on
// a recorder of its own when the flag attaches none.
func TestRunDemo(t *testing.T) {
	want := []string{
		"trace: cycles=26 shifts=5 trs=8 writes=13 reads=0 tws=0 copies=0 logic=0 stalls=0 (wire events: shift=320 tr=64 w=488 r=0 tw=0 copy=0)",
		"trace: cycles=61 shifts=12 trs=17 writes=21 reads=1 tws=2 copies=8 logic=0 stalls=0 (wire events: shift=768 tr=128 w=500 r=64 tw=128 copy=512)",
		"trace: cycles=129 shifts=4 trs=9 writes=4 reads=56 tws=56 copies=0 logic=0 stalls=0 (wire events: shift=256 tr=128 w=256 r=3584 tw=3584 copy=0)",
	}
	for _, args := range [][]string{{"demo"}, {"-metrics", "batch", "demo"}} {
		out := captureStdout(t, func() {
			if err := run(args); err != nil {
				t.Fatal(err)
			}
		})
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "trace:") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%v trace lines:\n%s\nwant:\n%s", args, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestRunObservabilityNeedsDemoOrBatch checks that -trace and -metrics
// are refused, before any work, on a command line whose subcommands
// charge nothing to the shared recorder.
func TestRunObservabilityNeedsDemoOrBatch(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{"-metrics", "-ops", "300", "campaign"},
		{"-metrics", "table1"},
		{"-trace", tracePath, "all"},
		{"-metrics", "-top-count", "1", "top", "demo"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "demo and batch") {
			t.Errorf("%v: err = %v, want one naming demo and batch", args, err)
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("refused -trace run created %s (stat err %v)", tracePath, err)
	}
}

// TestRunMetricsBatch checks that -metrics reports what batch ran: one
// source per bank, whose cycles sum to the batch's own total.
func TestRunMetricsBatch(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"-metrics", "batch"}); err != nil {
			t.Fatal(err)
		}
	})
	var total, sum, sources int
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(line, "totals: %d cycles", &total); err == nil {
			continue
		}
		var src string
		var cycles int
		if _, err := fmt.Sscanf(line, "%s cycles=%d", &src, &cycles); err == nil && strings.HasPrefix(src, "b") {
			sum += cycles
			sources++
		}
	}
	if total == 0 || sources != 8 || sum != total {
		t.Errorf("report has %d sources summing to %d cycles, want 8 summing to the batch total %d:\n%s", sources, sum, total, out)
	}
}

func TestRunHelpAndEmpty(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDemoWithTraceProducesValidChromeJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	if err := run([]string{"-trace", tracePath, "-metrics", "demo"}); err != nil {
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
	if len(records) == 0 {
		t.Fatal("trace file has no events")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nosuch-flag", "demo"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestTopTargetNormalization(t *testing.T) {
	for in, want := range map[string]string{
		":8080":                        "http://localhost:8080/metrics",
		"host:9090":                    "http://host:9090/metrics",
		"http://host:9090":             "http://host:9090/metrics",
		"http://host:9090/metrics":     "http://host:9090/metrics",
		"https://host/custom/endpoint": "https://host/custom/endpoint",
	} {
		if got := topTarget(in); got != want {
			t.Errorf("topTarget(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRunTopAgainstScrapeEndpoint drives `coruscant top` against a
// live Prometheus endpoint backed by a profiled batch run and checks
// the rendered heatmap names real DBCs.
func TestRunTopAgainstScrapeEndpoint(t *testing.T) {
	// A profiled workload behind the same handler the -debug-addr mux
	// mounts.
	prof, rec := newTestProfiler(t)
	if err := batchDemo(rec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(prof.Handler())
	defer srv.Close()

	out := captureStdout(t, func() {
		if err := run([]string{"-top-count", "1", "-top-n", "4", "top", srv.URL}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "coruscant top") {
		t.Errorf("top output lacks header:\n%s", out)
	}
	if !strings.Contains(out, "b0.s0.t0.d") {
		t.Errorf("top output names no DBCs:\n%s", out)
	}
	for _, col := range []string{"UTIL", "SHIFTS", "WEAR", "P95"} {
		if !strings.Contains(out, col) {
			t.Errorf("top output lacks column %q:\n%s", col, out)
		}
	}

	// Without a target the subcommand refuses.
	if err := run([]string{"top"}); err == nil {
		t.Error("top without a target accepted")
	}
	// An unreachable target is an error, not a hang.
	if err := run([]string{"-top-count", "1", "top", "127.0.0.1:1"}); err == nil {
		t.Error("top against a dead endpoint succeeded")
	}
}

// TestMetricsMountOnDefaultMux checks a recorder-backed run leaves the
// profiler scrapeable at /metrics on the default mux (what -debug-addr
// serves), and that repeated runs swap the profiler without
// double-registering the route.
func TestMetricsMountOnDefaultMux(t *testing.T) {
	for i := 0; i < 2; i++ {
		if err := run([]string{"-metrics", "batch"}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("GET", "/metrics", nil)
		rr := httptest.NewRecorder()
		http.DefaultServeMux.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("run %d: /metrics returned %d", i, rr.Code)
		}
		samples, err := profile.ParsePrometheus(rr.Body)
		if err != nil {
			t.Fatalf("run %d: /metrics does not validate: %v", i, err)
		}
		if len(samples) == 0 {
			t.Fatalf("run %d: /metrics served no samples", i)
		}
	}
}

// newTestProfiler builds the profiler+recorder pair the way run() does.
func newTestProfiler(t *testing.T) (*profile.Profiler, *telemetry.Recorder) {
	t.Helper()
	cfg := params.DefaultConfig()
	prof := profile.New(cfg)
	return prof, telemetry.NewRecorder(cfg, prof)
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
