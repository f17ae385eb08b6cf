package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// tracer keeps the spans the benchmark records around its own calls into
// each layer during one traced round, plus per-layer counts. The program
// itself is not instrumented: every span starts and ends in this
// package. A nil *tracer records nothing, so untraced rounds pay one
// branch per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	sums  map[string]float64
	sinks []*engineSink
}

// span is one timed call across a layer boundary.
type span struct {
	name       string // "<layer>.<call>"
	tid        int    // lane, see laneName
	id         int64  // request id shared by the spans of one call; 0 when none
	parent     string // name of the enclosing span, "" for a root
	start, end time.Time
}

// Lanes of the span file: one per client or load goroutine, one per
// client on the server side, one per engine shard.
const (
	laneClient  = 1
	laneHandler = 11
	laneEngine  = 21
)

func laneName(tid int) string {
	switch {
	case tid >= laneEngine:
		return fmt.Sprintf("engine shard %d", tid-laneEngine)
	case tid >= laneHandler:
		return fmt.Sprintf("server, client %d", tid-laneHandler)
	default:
		return fmt.Sprintf("client %d", tid-laneClient)
	}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: make(map[string]float64)}
}

// reset drops what the tracer recorded so far, so that set-up work is
// not charged to the measured phase.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.sums = make(map[string]float64)
	for _, s := range t.sinks {
		s.events, s.windows, s.laneSum = 0, 0, 0
	}
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds v to the per-layer count name.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// engineSink is a telemetry sink on one memory's recorder. It times the
// engine's execution windows from the window markers ExecuteBatch emits
// and counts every event the recorder sends it. The recorder calls Emit
// under its own lock; the totals are read once the memory is idle.
type engineSink struct {
	tr     *tracer
	tid    int
	parent string
	begin  time.Time
	lanes  int64

	events, windows, laneSum int64
}

// sink returns a new engine sink for shard, whose windows nest under
// spans named parent.
func (t *tracer) sink(shard int, parent string) *engineSink {
	s := &engineSink{tr: t, tid: laneEngine + shard, parent: parent}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
	return s
}

func (s *engineSink) Emit(e telemetry.Event) {
	s.events++
	if e.Op != telemetry.OpWindow {
		return
	}
	switch e.Name {
	case telemetry.WindowMarkBegin:
		s.begin, s.lanes = time.Now(), 0
	case telemetry.WindowMarkLane:
		s.lanes++
	case telemetry.WindowMarkEnd:
		s.windows++
		s.laneSum += s.lanes
		s.tr.add(span{name: "memory.window", tid: s.tid, parent: s.parent, start: s.begin, end: time.Now()})
	}
}

func (s *engineSink) Close() error { return nil }

// requestIDHeader carries a traced request's id from the client to the
// server-side span.
const requestIDHeader = "X-Bench-Request"

type idKey struct{}

// idTransport stamps each request with the id its context carries.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(idKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// middleware wraps the server's handler: it times each request on the
// server side and counts its body bytes. The id in the request header
// ties the handler span to the client span of the same request.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		body := &countingReader{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		name := "service.handler"
		if r.URL.Path == service.PathCompile {
			name = "service.compile"
		}
		t.add(span{name: name, tid: laneHandler + int(id>>32), id: id, parent: "service.client", start: start, end: end})
		t.count("service.req_bytes", float64(body.n))
		t.count("service.resp_bytes", float64(cw.n))
	})
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// maxFileSpans caps the span file at the earliest spans of the first
// traced round; the per-layer metrics use every span of every traced
// round.
const maxFileSpans = 20000

// writeSpans writes spans as a Chrome trace_event JSON array: a named
// lane per tid, then one complete event per span, ordered by start
// within its lane, with the request id and the parent in args.
func writeSpans(path string, t0 time.Time, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	if len(sorted) > maxFileSpans {
		sorted = sorted[:maxFileSpans]
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].tid < sorted[j].tid })

	pid := 1
	micros := func(d time.Duration) *uint64 {
		v := uint64(max(d, 0) / time.Microsecond)
		return &v
	}
	var recs []telemetry.ChromeRecord
	for i, s := range sorted {
		tid := s.tid
		if i == 0 || sorted[i-1].tid != tid {
			recs = append(recs, telemetry.ChromeRecord{Name: "thread_name", Ph: "M", Pid: &pid, Tid: &tid,
				Args: map[string]any{"name": laneName(tid)}})
		}
		recs = append(recs, telemetry.ChromeRecord{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Ph: "X",
			Ts: micros(s.start.Sub(t0)), Dur: micros(s.end.Sub(s.start)), Pid: &pid, Tid: &tid,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	if recs == nil {
		recs = []telemetry.ChromeRecord{}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return fmt.Errorf("encode span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	return nil
}
