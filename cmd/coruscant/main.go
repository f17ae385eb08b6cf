// Command coruscant regenerates the paper's evaluation tables and
// figures and offers small demonstrations of the PIM unit.
//
// Usage:
//
//	coruscant all                 # every table and figure, paper order
//	coruscant table1 table3 ...   # selected experiments
//	coruscant fig10 fig11 fig12
//	coruscant demo                # bit-level PIM walkthrough
//	coruscant batch               # bank-parallel ExecuteBatch demo
//	coruscant campaign            # fault-recovery Monte Carlo sweep
//	coruscant list                # experiment ids
//
// Campaign flags (with the campaign subcommand):
//
//	coruscant -p 1e-3 -ops 10000 -policy nmr3 campaign
//	coruscant -policy dup -retries 5 campaign
//
// Observability flags (most useful with demo, which drives the PIM
// unit through a telemetry recorder):
//
//	coruscant -trace out.json demo   # Chrome trace_event JSON; open in
//	                                 # https://ui.perfetto.dev
//	coruscant -metrics demo          # text metrics report on exit
//	coruscant -debug-addr :8080 all  # /metrics (Prometheus) +
//	                                 # /debug/pprof server
//	coruscant -cpuprofile cpu.pb all # runtime profiles
//
// Any recorder-backed run also feeds the racetrack hardware profiler
// (internal/telemetry/profile): per-DBC wear, head occupancy and
// shift-distance heatmaps. With -debug-addr the profiler serves
// Prometheus text exposition at /metrics, which the live terminal
// heatmap polls:
//
//	coruscant -debug-addr :8080 batch &   # long-running profiled work
//	coruscant top :8080                   # live per-DBC heatmap
//	coruscant -top-count 1 top :8080      # one scrape, then exit
//
// Against a running coruscantd (see cmd/coruscantd), top renders one
// utilization line per (shard, DBC), and the load generator soaks the
// service with mixed traffic, bit-checking every read against a
// private serial mirror:
//
//	coruscantd -shards 4 &
//	coruscant -load-clients 8 -load-requests 2000 load :7917
//	coruscant top :7917
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/dbc"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/reliability"
	"repro/internal/resilient"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coruscant:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coruscant", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto)")
	metrics := fs.Bool("metrics", false, "print the telemetry metrics report on exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile")
	memProfile := fs.String("memprofile", "", "write a heap profile on exit")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address")
	faultP := fs.Float64("p", 1e-3, "campaign: per-sense TR fault probability (§V-F)")
	shiftP := fs.Float64("shift-p", 0, "campaign: per-step shift fault probability")
	campaignOps := fs.Int("ops", 10000, "campaign: number of cpim operations")
	policySpec := fs.String("policy", "nmr3", "campaign: recovery policy (off|dup|nmr3|nmr5|nmr7)")
	retries := fs.Int("retries", -1, "campaign: retry budget override (-1 = policy default)")
	quarantineAfter := fs.Int("quarantine-after", 0, "campaign: detected faults per DBC before quarantine (0 = never)")
	seed := fs.Int64("seed", 1, "campaign: workload and fault-stream seed")
	topInterval := fs.Duration("top-interval", 2*time.Second, "top: poll interval")
	topN := fs.Int("top-n", 16, "top: show at most this many DBCs (0 = all)")
	topCount := fs.Int("top-count", 0, "top: number of polls before exiting (0 = forever)")
	loadClients := fs.Int("load-clients", 4, "load: concurrent clients")
	loadRequests := fs.Int("load-requests", 500, "load: requests per client")
	loadBlocksize := fs.Int("load-blocksize", 8, "load: lane width of generated arithmetic")
	loadCompileEvery := fs.Int("load-compile-every", 16, "load: every n-th request compiles a pimasm kernel (-1 = never)")
	fs.Usage = func() {
		usage()
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

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	// Assemble the telemetry recorder when any observability output is
	// requested; a nil recorder keeps the disabled path free.
	var sinks []telemetry.Sink
	var traceFile *os.File
	var chrome *telemetry.ChromeSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		traceFile = f
		chrome = telemetry.NewChromeSink(f)
		sinks = append(sinks, chrome)
	}
	var rec *telemetry.Recorder
	var prof *profile.Profiler
	if chrome != nil || *metrics || *debugAddr != "" {
		// Every recorder-backed run also feeds the hardware profiler;
		// with a Chrome sink attached its per-DBC counters stream into
		// the trace as Perfetto counter tracks.
		var opts []profile.Option
		if chrome != nil {
			opts = append(opts, profile.WithChromeCounters(chrome, 64))
		}
		prof = profile.New(params.DefaultConfig(), opts...)
		mountMetrics(prof)
		sinks = append(sinks, prof)
		rec = telemetry.NewRecorder(params.DefaultConfig(), sinks...)
	}
	if *debugAddr != "" {
		// Expose the profiler's Prometheus exposition (/metrics) and pprof
		// (/debug/pprof) for the duration of the run.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "coruscant: debug server:", err)
			}
		}()
	}

	camp := campaignFlags{
		faultP: *faultP, shiftP: *shiftP, ops: *campaignOps,
		policy: *policySpec, retries: *retries,
		quarantineAfter: *quarantineAfter, seed: *seed,
	}
	top := topFlags{interval: *topInterval, n: *topN, count: *topCount}
	load := loadFlags{
		clients: *loadClients, requests: *loadRequests,
		blocksize: *loadBlocksize, compileEvery: *loadCompileEvery, seed: *seed,
	}
	runErr := dispatch(args, rec, camp, top, load)

	if err := rec.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr == nil && *metrics {
		runErr = prof.WriteText(os.Stdout)
	}
	if runErr == nil && *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		runErr = pprof.WriteHeapProfile(f)
	}
	if *tracePath != "" && runErr == nil {
		fmt.Fprintf(os.Stderr, "coruscant: wrote %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	return runErr
}

// mountMetrics publishes the profiler's Prometheus exposition at
// /metrics on the default mux. The handler is registered once per
// process and delegates through a swappable pointer, so repeated run()
// calls (tests) never double-register.
var (
	metricsMu   sync.Mutex
	metricsProf *profile.Profiler
	metricsOnce sync.Once
)

func mountMetrics(p *profile.Profiler) {
	metricsMu.Lock()
	metricsProf = p
	metricsMu.Unlock()
	metricsOnce.Do(func() {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			metricsMu.Lock()
			p := metricsProf
			metricsMu.Unlock()
			if p == nil {
				http.NotFound(w, r)
				return
			}
			p.Handler().ServeHTTP(w, r)
		})
	})
}

// dispatch runs the positional subcommands with the (possibly nil)
// telemetry recorder. The loop is indexed because `top` consumes the
// following argument as its scrape target.
func dispatch(args []string, rec *telemetry.Recorder, camp campaignFlags, top topFlags, load loadFlags) error {
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch arg {
		case "top":
			if i+1 >= len(args) {
				return fmt.Errorf("top needs a target (host:port or URL of a -debug-addr server)")
			}
			i++
			if err := runTop(args[i], top); err != nil {
				return err
			}
		case "load":
			if i+1 >= len(args) {
				return fmt.Errorf("load needs a target (host:port or URL of a coruscantd)")
			}
			i++
			if err := runLoad(args[i], load); err != nil {
				return err
			}
		case "help", "-h", "--help":
			usage()
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
		case "all":
			tables, err := experiments.All()
			if err != nil {
				return err
			}
			for _, t := range tables {
				t.Render(os.Stdout)
			}
		case "demo":
			if err := demo(rec); err != nil {
				return err
			}
		case "batch":
			if err := batchDemo(rec); err != nil {
				return err
			}
		case "campaign":
			if err := runCampaign(camp); err != nil {
				return err
			}
		case "json":
			tables, err := experiments.All()
			if err != nil {
				return err
			}
			for i, t := range tables {
				b, err := t.JSON()
				if err != nil {
					return err
				}
				if i > 0 {
					fmt.Println(",")
				} else {
					fmt.Println("[")
				}
				os.Stdout.Write(b)
			}
			fmt.Println("\n]")
		case "svg":
			// Render the figure-style experiments to SVG files in the
			// working directory.
			for _, id := range []string{"fig10", "fig11", "fig12", "sens"} {
				svg, err := experiments.FigureSVG(id)
				if err != nil {
					return err
				}
				name := id + ".svg"
				if err := os.WriteFile(name, []byte(svg), 0o644); err != nil {
					return err
				}
				fmt.Println("wrote", name)
			}
		default:
			gen, err := experiments.ByID(arg)
			if err != nil {
				return err
			}
			t, err := gen()
			if err != nil {
				return err
			}
			t.Render(os.Stdout)
		}
	}
	return nil
}

func usage() {
	fmt.Println("usage: coruscant [flags] [all|demo|batch|campaign|svg|json|list|top <target>|load <target>|<experiment>...]")
	fmt.Println("experiments:", experiments.IDs())
}

// topFlags carries the top subcommand's flag values.
type topFlags struct {
	interval time.Duration
	n        int
	count    int
}

// topTarget normalizes a top scrape target: a bare host:port (or
// ":8080") gets the http scheme and the /metrics path of the
// -debug-addr server; full URLs pass through.
func topTarget(target string) string {
	if !strings.Contains(target, "://") {
		if strings.HasPrefix(target, ":") {
			target = "localhost" + target
		}
		target = "http://" + target
	}
	if i := strings.Index(target, "://"); !strings.Contains(target[i+3:], "/") {
		target += "/metrics"
	}
	return target
}

// runTop polls the profiler's Prometheus endpoint and renders the live
// per-DBC terminal heatmap: utilization, shift and wear counters, the
// hottest row, and align-distance p50/p95.
func runTop(target string, f topFlags) error {
	url := topTarget(target)
	for poll := 0; ; poll++ {
		if f.count > 0 && poll >= f.count {
			return nil
		}
		if poll > 0 {
			time.Sleep(f.interval)
		}
		resp, err := http.Get(url)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("top: %s returned %s", url, resp.Status)
		}
		samples, err := profile.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("top: %s: %w", url, err)
		}
		if f.count != 1 {
			fmt.Print("\033[2J\033[H") // clear screen between polls
		}
		fmt.Printf("coruscant top — %s — every %v\n\n", url, f.interval)
		profile.RenderTop(os.Stdout, profile.TopFromSamples(samples), f.n)
	}
}

// campaignFlags carries the campaign subcommand's flag values.
type campaignFlags struct {
	faultP, shiftP  float64
	ops             int
	policy          string
	retries         int
	quarantineAfter int
	seed            int64
}

// runCampaign drives a fault-injection Monte Carlo sweep through the
// recovered execution path and reports achieved versus raw delivered
// error rates.
func runCampaign(f campaignFlags) error {
	pol, err := resilient.ParsePolicy(f.policy)
	if err != nil {
		return err
	}
	if f.retries >= 0 {
		pol.MaxRetries = f.retries
	}
	pol.QuarantineAfter = f.quarantineAfter
	c := reliability.Campaign{
		TRProb:    f.faultP,
		ShiftProb: f.shiftP,
		Policy:    pol,
		Ops:       f.ops,
		Seed:      f.seed,
	}
	fmt.Printf("campaign: %d ops at p=%g, policy %s (retries=%d, backoff=%d cycles, quarantine-after=%d)\n",
		f.ops, f.faultP, pol, pol.MaxRetries, pol.BackoffCycles, pol.QuarantineAfter)
	rep, err := c.Run()
	if err != nil {
		return err
	}
	fmt.Printf("  raw:       %6d / %d wrong results (%.3e per op)\n", rep.RawErrors, rep.Ops, rep.RawRate())
	fmt.Printf("  recovered: %6d / %d wrong results (%.3e per op)\n", rep.RecovErrors, rep.Ops, rep.RecovRate())
	fmt.Printf("  improvement: %.0fx (error-rate reduction", rep.Improvement())
	if rep.RecovErrors == 0 && rep.RawErrors > 0 {
		fmt.Printf(", lower bound: zero delivered errors")
	}
	fmt.Println(")")
	fmt.Printf("  recovery:  %d detected, %d quarantined (%d remapped to spares)\n",
		rep.Detected, rep.Quarantined, rep.SparesUsed)
	fmt.Printf("  overhead:  %.2fx cycles (%d raw, %d recovered, stalls included)\n",
		rep.Overhead(), rep.RawStats.Cycles(), rep.RecovStats.Cycles())
	return nil
}

// batchDemo exercises the whole-memory model's bank-parallel batch
// path: one cpim add per bank, all submitted as a single ExecuteBatch,
// so each bank is one lane of the batch's parallelism window.
func batchDemo(rec *telemetry.Recorder) error {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := memory.New(cfg)
	if err != nil {
		return err
	}
	m.SetTelemetry(rec)
	// With -metrics, rec is shared with the other subcommands (demo
	// charges it too): total only the steps charged from here on.
	before := m.Stats()

	banks := 8
	if banks > cfg.Geometry.Banks {
		banks = cfg.Geometry.Banks
	}
	pimDBC := func(bank int) isa.Addr {
		return isa.Addr{Bank: bank, Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	}
	reqs := make([]memory.Request, banks)
	for bank := 0; bank < banks; bank++ {
		for r := 0; r < 3; r++ {
			vals := make([]uint64, 8)
			for l := range vals {
				vals[l] = uint64(10*bank + 3*r + l)
			}
			row, err := pim.PackLanes(vals, 8, cfg.Geometry.TrackWidth)
			if err != nil {
				return err
			}
			a := pimDBC(bank)
			a.Row = r
			if err := m.WriteRow(a, row); err != nil {
				return err
			}
		}
		operands := make([]isa.Addr, 3)
		for r := range operands {
			operands[r] = pimDBC(bank)
			operands[r].Row = r
		}
		dst := pimDBC(bank)
		dst.Row = 10
		reqs[bank] = memory.Request{
			In:       isa.Instruction{Op: isa.OpAdd, Src: pimDBC(bank), Blocksize: 8, Operands: 3},
			Operands: operands,
			Dst:      dst,
		}
	}
	fmt.Printf("batch: %d three-operand adds across %d banks\n", banks, banks)
	for bank, res := range m.ExecuteBatch(reqs) {
		if res.Err != nil {
			return fmt.Errorf("bank %d: %w", bank, res.Err)
		}
		fmt.Printf("  bank %d: %v\n", bank, pim.UnpackLanes(res.Row, 8))
	}
	st := m.Stats()
	st.Add(before.Scale(-1))
	fmt.Printf("totals: %d cycles, %d DBCs materialized, moves %+v\n",
		st.Cycles(), m.MaterializedDBCs(), m.Moves())
	return nil
}

// demo walks through the PIM unit's core operations at the bit level.
// With a telemetry recorder attached, every primitive lands in the
// requested sinks under the "demo" source lane.
func demo(rec *telemetry.Recorder) error {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	u, err := pim.NewUnit(cfg)
	if err != nil {
		return err
	}
	u.SetTelemetry(rec, "demo")
	fmt.Printf("PIM unit: %d nanowires x %d rows, %v (window at rows %d..%d)\n",
		u.Width(), cfg.Geometry.RowsPerDBC, cfg.TRD,
		first(params.PortPlacement(cfg.Geometry.RowsPerDBC, cfg.TRD)),
		second(params.PortPlacement(cfg.Geometry.RowsPerDBC, cfg.TRD)))

	// Five-operand addition, eight 8-bit lanes at once.
	vals := [][]uint64{
		{10, 20, 30, 40, 50, 60, 70, 80},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{100, 90, 80, 70, 60, 50, 40, 30},
		{5, 5, 5, 5, 5, 5, 5, 5},
		{9, 8, 7, 6, 5, 4, 3, 2},
	}
	rows := make([]dbc.Row, len(vals))
	for i, v := range vals {
		r, err := pim.PackLanes(v, 8, u.Width())
		if err != nil {
			return err
		}
		rows[i] = r
	}
	sum, err := u.AddMulti(rows, 8)
	if err != nil {
		return err
	}
	fmt.Println("5-operand add:", pim.UnpackLanes(sum, 8))
	fmt.Println("trace:", u.Stats())

	// Multiplication.
	u.ResetStats()
	prods, err := u.MultiplyValues([]uint64{13, 250, 99, 7}, []uint64{11, 250, 44, 200}, 8)
	if err != nil {
		return err
	}
	fmt.Println("multiply:", prods)
	fmt.Println("trace:", u.Stats())

	// Max pooling.
	u.ResetStats()
	cands := make([]dbc.Row, 4)
	for i, v := range [][]uint64{
		{3, 200, 17, 4, 90, 6, 250, 1},
		{77, 3, 18, 200, 13, 91, 4, 2},
		{5, 100, 200, 6, 7, 8, 9, 255},
		{60, 60, 60, 60, 60, 60, 60, 60},
	} {
		r, err := pim.PackLanes(v, 8, u.Width())
		if err != nil {
			return err
		}
		cands[i] = r
	}
	maxRow, err := u.MaxTR(cands, 8)
	if err != nil {
		return err
	}
	fmt.Println("max (TR tournament):", pim.UnpackLanes(maxRow, 8))
	fmt.Println("trace:", u.Stats())
	if rec != nil {
		fmt.Printf("telemetry: %d cycles, %.1f pJ\n", rec.Cycle(), rec.EnergyPJ())
	}
	return nil
}

func first(a, _ int) int  { return a }
func second(_, b int) int { return b }
