// Command bench is the end-to-end benchmark of the CORUSCANT
// reproduction. Four workloads drive the coruscantd service, the batch
// engine and the pimc compiler from outside, check every output bit for
// bit against an independent reference, and report the end-to-end
// metrics of BENCHMARK.json or, with --trace 1, the per-layer metrics of
// a traced run. See README.md in this directory.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                              # every workload, one child process each
//	bash bench/run.sh -repeat 10 -out runs.json    # ten seeds per workload, saved as a run set
//	bash bench/run.sh compare base.json head.json  # verdict per (workload, metric)
//
// A single-workload run prints its metrics to standard error and, as
// the last line of standard output, one JSON object:
//
//	{"attempted":..., "correct":true, "failed":0, "metrics":{"setup_s":{"unit":"s","value":...}, ...}}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// result is one run's outcome, the last line a single-workload run
// prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The two lists below are the
// metrics BENCHMARK.json declares, in its order.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"rss_peak_mb", "MB"},
	{"sim_cycles_per_op", "cycles"},
	{"sim_energy_pj_per_op", "pJ"},
	{"sim_makespan_per_op", "cycles"},
}

var layerMetrics = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent_rate", "1/s"},
	{"loadgen.verify_s", "s"},
	{"service.transport_share", "ratio"},
	{"service.engine_share", "ratio"},
	{"service.compile_share", "ratio"},
	{"service.req_bytes_per_op", "bytes"},
	{"service.resp_bytes_per_op", "bytes"},
	{"service.coalesced_share", "ratio"},
	{"service.reqs_per_merged_window", "count"},
	{"service.rejected_ratio", "ratio"},
	{"memory.window_p50_ms", "ms"},
	{"memory.window_p99_ms", "ms"},
	{"memory.window_share", "ratio"},
	{"memory.plan_p50_ms", "ms"},
	{"memory.plan_share", "ratio"},
	{"memory.lanes_per_window", "count"},
	{"memory.windows_per_op", "count"},
	{"memory.row_reads_per_op", "count"},
	{"memory.row_writes_per_op", "count"},
	{"memory.row_copies_per_op", "count"},
	{"memory.dbcs_materialized", "count"},
	{"device.shift_steps_per_op", "steps"},
	{"device.tr_steps_per_op", "steps"},
	{"device.write_steps_per_op", "steps"},
	{"device.read_steps_per_op", "steps"},
	{"device.tw_steps_per_op", "steps"},
	{"device.copy_steps_per_op", "steps"},
	{"device.logic_steps_per_op", "steps"},
	{"device.stall_steps_per_op", "steps"},
	{"device.unattributed_cycles_per_op", "cycles"},
	{"compile.compile_share", "ratio"},
	{"compile.run_share", "ratio"},
	{"compile.moves_model_error", "ratio"},
	{"compile.shift_model_error", "ratio"},
	{"compile.batches_per_prog", "count"},
	{"compile.rows_recycled_per_prog", "count"},
	{"compile.overlap_ratio", "ratio"},
	{"telemetry.trace_overhead_ratio", "ratio"},
	{"telemetry.events_per_op", "count"},
	{"host.ops_per_s", "op/s"},
	{"host.latency_p50_ms", "ms"},
	{"host.latency_p99_ms", "ms"},
	{"host.slo_ok_ratio", "ratio"},
	{"host.cpu_us_per_op", "us"},
	{"host.ref_mops", "Mop/s"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, layerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// workloads are the benchmark's traffic shapes, in run order.
var workloads = []*workload{serveMixed, serveShared, engineBatch, compileCorpus}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "measurement time per workload run")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default: trace-<workload>.json in $BENCH_BUILD_DIR, else none)")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ... (all-workload mode)")
	out := fs.String("out", "", "write every run of the all-workload mode to this file as a run set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace takes 0 or 1, got %d", *traceFlag)
	}
	if *seconds < 0 || *repeat < 1 {
		return errors.New("--seconds must be ≥ 0 and --repeat ≥ 1")
	}
	if *name == "" {
		return runAll(stdout, stderr, *seed, *seconds, *traceFlag, *repeat, *out)
	}

	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, traceOut: *traceOut, scale: 1}
	if o.trace && o.traceOut == "" {
		if dir := os.Getenv("BENCH_BUILD_DIR"); dir != "" {
			o.traceOut = filepath.Join(dir, "trace-"+w.name+".json")
		}
	}
	res, host, err := measure(w, o)
	if err != nil {
		return err
	}
	printTable(stderr, w.name, res)
	if host != nil {
		fmt.Fprintln(stderr, "  not gated, host time on this host:")
		printMetrics(stderr, host)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printTable prints a run's metrics by name with their units.
func printTable(w io.Writer, workload string, res *result) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed (failed_ratio %.3g)\n",
		workload, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	printMetrics(w, res.Metrics)
}

func printMetrics(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// runAll runs every workload repeat times, each run in its own child
// process so set-up time and peak memory are the workload's own.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, traceFlag, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Host: currentHost(), RoundOps: make(map[string]int)}
	last := make(map[string]*result)
	for _, w := range workloads {
		set.RoundOps[w.name] = w.ops
		for i := 0; i < repeat; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag))
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			res, err := lastResult(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			set.Runs = append(set.Runs, runEntry{Workload: w.name, Seed: s, Trace: traceFlag == 1, Result: *res})
			last[w.name] = res
		}
	}
	set.summarize()
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		printTable(stdout, w.name, last[w.name])
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// lastResult decodes the JSON result on the last line of a run's output.
func lastResult(output []byte) (*result, error) {
	var lastLine []byte
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lastLine = append(lastLine[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(lastLine, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
