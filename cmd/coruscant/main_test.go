package main

import (
	"flag"
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

func TestRunDemo(t *testing.T) {
	if err := run([]string{"demo"}); err != nil {
		t.Fatal(err)
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
