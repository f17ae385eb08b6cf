package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// runSet is what -out writes: the host, the frozen round sizes, every
// run's result, and per (workload, metric) the median and quartiles over
// the set's runs.
type runSet struct {
	Host     hostInfo                      `json:"host"`
	RoundOps map[string]int                `json:"round_ops"`
	Runs     []runEntry                    `json:"runs"`
	Summary  map[string]map[string]summary `json:"summary"`
}

type runEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// summary summarizes one metric over a set's runs. Spread is the
// distance between the quartiles as a share of the median.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

func currentHost() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// values collects metric name of workload w over the set's runs, in run
// order.
func (s *runSet) values(w, name string) (vals []float64, unit string) {
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == w {
			vals = append(vals, m.Value)
			unit = m.Unit
		}
	}
	return vals, unit
}

func (s *runSet) workloads() []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

func (s *runSet) summarize() {
	s.Summary = make(map[string]map[string]summary)
	for _, w := range s.workloads() {
		s.Summary[w] = make(map[string]summary)
		for _, r := range s.Runs {
			if r.Workload != w {
				continue
			}
			for name := range r.Result.Metrics {
				if _, done := s.Summary[w][name]; done {
					continue
				}
				vals, unit := s.values(w, name)
				q := quartiles(vals)
				q.Unit, q.N = unit, len(vals)
				s.Summary[w][name] = q
			}
		}
	}
}

// quartiles matches Python's statistics.quantiles(values, n=4), whose
// default method is "exclusive", and adds the median and the spread.
func quartiles(values []float64) summary {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	q := summary{Median: median(d)}
	if len(d) < 2 {
		q.Q1, q.Q3 = q.Median, q.Median
		return q
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	q.Q1, q.Q3 = cut(1), cut(3)
	q.Spread = ratio(q.Q3-q.Q1, math.Abs(q.Median))
	return q
}

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd prints, for every (workload, end-to-end metric) pair of two
// run sets, whether HEAD is better, worse, unchanged or unresolved
// against BASE under the bounds of BENCHMARK.json.
func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-spec BENCHMARK.json] BASE.json HEAD.json")
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		return err
	}
	var base, head runSet
	if err := readJSON(fs.Arg(0), &base); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &head); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-15s %-22s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "base median", "spread", "head median", "spread", "change", "bound", "verdict")
	for _, w := range base.workloads() {
		for _, m := range sp.EndToEnd {
			b, _ := base.values(w, m.Name)
			h, _ := head.values(w, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			qb, qh := quartiles(b), quartiles(h)
			fmt.Fprintf(stdout, "%-15s %-22s %13.6g %6.1f%% %13.6g %6.1f%% %+7.1f%% %5.1f%%  %s\n",
				w, m.Name, qb.Median, 100*qb.Spread, qh.Median, 100*qh.Spread,
				100*ratio(qh.Median-qb.Median, math.Abs(qb.Median)), 100*m.Bound,
				verdict(b, h, m.Better == "higher", m.Bound))
		}
	}
	return nil
}

// verdict compares two sets of runs of one metric. HEAD is worse when
// its median is worse than BASE's by more than the bound. Where the
// run-to-run spread of either side is wider than the bound the pair is
// unresolved, unless every HEAD run beats every BASE run. HEAD is better
// when it wins at least nine tenths of the runs paired in order and the
// medians differ by more than BASE's quartile distance.
func verdict(base, head []float64, higherBetter bool, bound float64) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	qb, qh := quartiles(base), quartiles(head)
	worse := sign * ratio(qh.Median-qb.Median, math.Abs(qb.Median)) // > 0: HEAD worse
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) < 0
		}
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	switch {
	case max(qb.Spread, qh.Spread) > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < 0 && math.Abs(qh.Median-qb.Median) > qb.Q3-qb.Q1 && float64(wins) >= 0.9*float64(pairs):
		return "better"
	default:
		return "unchanged"
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
