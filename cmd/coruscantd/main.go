// Command coruscantd is the CORUSCANT PIM-as-a-service daemon: a pool
// of independent racetrack memory shards behind the versioned HTTP
// API of internal/service.
//
// Usage:
//
//	coruscantd                          # 1 shard on :7917
//	coruscantd -addr :7917 -shards 4    # 4 shards
//	coruscantd -quota-rate 500 -quota-burst 20
//	coruscantd -queue-depth 64 -coalesce-max 8 -coalesce-window 200us
//
// Endpoints (see internal/service for the wire schema):
//
//	POST /v1/execute   one operation (write/copy/read or a cpim op)
//	POST /v1/batch     a batch on one shard, bit-identical to serial
//	POST /v1/compile   compile + run a pimasm program
//	GET  /v1/health    status, geometry, service counters
//	GET  /v1/metrics   service counters + per-shard hardware profiler
//	                   (also at /metrics for `coruscant top`)
//
// Admission control rejects with 429 (quota or full queue, with
// Retry-After) and 503 while draining. SIGTERM/SIGINT triggers a
// graceful drain: accepted requests finish and are answered, new ones
// are rejected, telemetry flushes, then the listener closes and the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/params"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coruscantd:", err)
		os.Exit(1)
	}
}

// run is the daemon body: parse flags, serve until a termination
// signal, drain, exit.
func run(args []string, out *os.File) error {
	d, err := newDaemon(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coruscantd: %d shard(s) of %s on http://%s\n",
		d.cfg.Shards, geometrySummary(d.cfg.Device), d.lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- d.serve() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "coruscantd: draining")
		return d.shutdown(context.Background())
	}
}

// HTTP server timeouts. A client gets readHeaderTimeout to send its
// headers and readTimeout for the whole request; request bodies are
// bounded (a few KiB for execute, 1 MiB for compile), so only a stalled
// or hostile client comes near either. writeTimeout runs from the end
// of the headers to the end of the reply, so it also covers the queue
// wait and the execution of the request, compile jobs included.
// idleTimeout closes keep-alive connections nobody uses.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// daemon ties the service server to its HTTP front end; split from
// run so tests can drive the full lifecycle in-process.
type daemon struct {
	cfg  service.Config
	srv  *service.Server
	http *http.Server
	lis  net.Listener
}

func newDaemon(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("coruscantd", flag.ContinueOnError)
	addr := fs.String("addr", ":7917", "listen address")
	shards := fs.Int("shards", 1, "independent memory shards")
	queueDepth := fs.Int("queue-depth", 64, "admission queue depth per shard")
	coalesceMax := fs.Int("coalesce-max", 8, "max requests merged into one execution window")
	coalesceWindow := fs.Duration("coalesce-window", 0, "how long a window waits for more requests (0 = only merge what is queued)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant requests/second (0 = no quotas)")
	quotaBurst := fs.Int("quota-burst", 8, "per-tenant token-bucket depth")
	telemetry := fs.Bool("telemetry", true, "per-shard hardware profilers on /v1/metrics")
	trackWidth := fs.Int("track-width", 0, "override racetrack width in wires (0 = default geometry)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	device := params.DefaultConfig()
	if *trackWidth > 0 {
		device.Geometry.TrackWidth = *trackWidth
	}
	if err := device.Validate(); err != nil {
		return nil, err
	}
	cfg := service.Config{
		Device:         device,
		Shards:         *shards,
		QueueDepth:     *queueDepth,
		CoalesceMax:    *coalesceMax,
		CoalesceWindow: *coalesceWindow,
		QuotaRate:      *quotaRate,
		QuotaBurst:     *quotaBurst,
		Telemetry:      *telemetry,
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Drain()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	// Alias for `coruscant top <addr>`, which scrapes /metrics.
	mux.Handle("/metrics", http.RedirectHandler(service.PathMetrics, http.StatusTemporaryRedirect))
	return &daemon{
		cfg: cfg,
		srv: srv,
		http: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		},
		lis: lis,
	}, nil
}

// serve blocks until the listener closes.
func (d *daemon) serve() error {
	if err := d.http.Serve(d.lis); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// shutdown is the graceful exit: drain the service first — in-flight
// work completes and is answered, new requests get 503 while the
// listener is still up, telemetry flushes — then close the listener.
func (d *daemon) shutdown(ctx context.Context) error {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return d.http.Shutdown(ctx)
}

func geometrySummary(cfg params.Config) string {
	g := cfg.Geometry
	return fmt.Sprintf("%db x %ds x %dt x %dd (%dw tracks)",
		g.Banks, g.SubarraysPerBank, g.TilesPerSubarray, g.DBCsPerTile, g.TrackWidth)
}
