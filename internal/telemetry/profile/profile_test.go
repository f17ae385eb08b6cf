package profile_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

// newProfiledDBC wires a real DBC to a recorder with the profiler
// attached as sink, the way coruscant/pimasm assemble it.
func newProfiledDBC(t *testing.T, cfg params.Config) (*dbc.DBC, *profile.Profiler) {
	t.Helper()
	p := profile.New(cfg)
	rec := telemetry.NewRecorder(cfg, p)
	d, err := dbc.New(64, cfg.Geometry.RowsPerDBC, cfg.TRD)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(rec, "b0.s0.t0.d0")
	return d, p
}

func onesRow(width int) dbc.Row {
	r := dbc.NewRow(width)
	for i := 0; i < width; i++ {
		r.Set(i, 1)
	}
	return r
}

// TestProfilerSpatialAttribution drives a real DBC through aligned
// port accesses and checks the profiler recovers the spatial truth:
// wear lands on the rows actually accessed, occupancy stays inside the
// legal excursion, and the align shift runs become per-port distance
// observations.
func TestProfilerSpatialAttribution(t *testing.T) {
	cfg := params.DefaultConfig()
	d, p := newProfiledDBC(t, cfg)

	steps0, err := d.Align(0, device.Left)
	if err != nil {
		t.Fatal(err)
	}
	d.ReadPort(device.Left)

	steps5, err := d.Align(5, device.Left)
	if err != nil {
		t.Fatal(err)
	}
	d.WritePort(device.Left, onesRow(64))

	twRow := d.RowAtPort(device.Left)
	d.TW(onesRow(64))

	snaps := p.Snapshot()
	if len(snaps) != 1 || snaps[0].Src != "b0.s0.t0.d0" {
		t.Fatalf("snapshot sources = %+v, want exactly b0.s0.t0.d0", snaps)
	}
	s := snaps[0]

	if got := s.ShiftSteps(); got != uint64(steps0+steps5) {
		t.Errorf("shift steps = %d, want %d", got, steps0+steps5)
	}
	if len(s.RowReads) < 1 || s.RowReads[0] != 1 {
		t.Errorf("row 0 reads = %v, want exactly one read at row 0", s.RowReads)
	}
	// Row 5 takes the port write, plus the TW if the head never moved.
	wantRow5 := uint64(1)
	if twRow == 5 {
		wantRow5 = 2
	}
	if len(s.RowWrites) < 6 || s.RowWrites[5] != wantRow5 {
		t.Errorf("row 5 writes = %v, want %d at row 5 (TW row %d)", s.RowWrites, wantRow5, twRow)
	}
	if twRow >= 0 && twRow != 5 && s.RowWrites[twRow] != 1 {
		t.Errorf("TW wear at row %d = %d, want 1", twRow, s.RowWrites[twRow])
	}
	if got := s.WearTotal(); got != 2 {
		t.Errorf("wear total = %d, want 2 (port write + TW)", got)
	}

	// Align distances: each nonzero align run shows up as one per-port
	// observation of exactly that length.
	var wantObs uint64
	for _, n := range []int{steps0, steps5} {
		if n > 0 {
			wantObs++
		}
	}
	left := s.PortDist[profile.PortLeft]
	if got := left.Total(); got != wantObs {
		t.Errorf("left-port distance observations = %d, want %d", got, wantObs)
	}
	if steps5 > 0 && left.Max() < uint64(steps0) && left.Max() < uint64(steps5) {
		t.Errorf("left-port distance max = %d, want >= one of the align runs (%d, %d)",
			left.Max(), steps0, steps5)
	}
	if got, want := s.ShiftDist.Sum(), uint64(steps0+steps5); got != want {
		t.Errorf("total align distance = %d, want %d", got, want)
	}

	// Occupancy: every observed head offset must be inside the legal
	// excursion, and occupancy mass equals the shift-step count.
	lo, hi := d.OffsetBounds()
	var mass uint64
	for off, n := range s.Occupancy {
		if off < lo || off > hi {
			t.Errorf("occupancy offset %d outside excursion [%d,%d]", off, lo, hi)
		}
		mass += n
	}
	if mass != s.ShiftSteps() {
		t.Errorf("occupancy mass %d != shift steps %d", mass, s.ShiftSteps())
	}
	if plo, phi := p.OffsetRange(); plo > lo || phi < hi {
		t.Errorf("profiler offset range [%d,%d] does not cover device bounds [%d,%d]",
			plo, phi, lo, hi)
	}
}

// TestScatterWearBothPorts checks both-port scatter writes wear both
// aligned rows: the left-port row from the event, the right-port row
// reconstructed from the TRD geometry.
func TestScatterWearBothPorts(t *testing.T) {
	cfg := params.DefaultConfig()
	d, p := newProfiledDBC(t, cfg)

	leftRow := d.RowAtPort(device.Left)
	rightRow := d.RowAtPort(device.Right)
	if leftRow < 0 || rightRow < 0 {
		t.Fatalf("ports not over data rows at reset (left=%d right=%d)", leftRow, rightRow)
	}
	left, right := []uint64{1 << 0}, []uint64{1 << 1}
	d.WriteScatterPlanes(left, left, right, right, 2)

	s := p.Snapshot()[0]
	if s.RowWrites[leftRow] != 1 {
		t.Errorf("left-port row %d wear = %d, want 1", leftRow, s.RowWrites[leftRow])
	}
	if s.RowWrites[rightRow] != 1 {
		t.Errorf("right-port row %d wear = %d, want 1 (reconstructed via TRD)", rightRow, s.RowWrites[rightRow])
	}
}

// workload drives enough varied activity over two DBCs for the
// exposition tests to have real shape.
func workload(t *testing.T, cfg params.Config, rec *telemetry.Recorder) {
	t.Helper()
	for i, src := range []telemetry.Source{"b0.s0.t0.d0", "b0.s0.t0.d1"} {
		d, err := dbc.New(64, cfg.Geometry.RowsPerDBC, cfg.TRD)
		if err != nil {
			t.Fatal(err)
		}
		d.SetTelemetry(rec, src)
		for r := 0; r < 8; r += i + 1 {
			if _, err := d.Align(r, device.Left); err != nil {
				t.Fatal(err)
			}
			d.WritePort(device.Left, onesRow(64))
			d.ReadPort(device.Left)
		}
		if _, _, err := d.AlignNearest(cfg.Geometry.RowsPerDBC - 1); err != nil {
			t.Fatal(err)
		}
		d.ReadPort(device.Right)
	}
}

// TestWritePrometheusRoundTrips checks the exposition both ways: the
// text parses under the format-validating parser (TYPE declarations,
// label syntax, cumulative histogram buckets) and the samples carry
// the counters the profiler holds.
func TestWritePrometheusRoundTrips(t *testing.T) {
	cfg := params.DefaultConfig()
	p := profile.New(cfg)
	rec := telemetry.NewRecorder(cfg, p)
	workload(t, cfg, rec)

	var buf bytes.Buffer
	if err := p.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := profile.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, text)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}

	// Cross-check a counter against the snapshot.
	snaps := p.Snapshot()
	wantShifts := map[string]float64{}
	for _, s := range snaps {
		if n := s.ShiftSteps(); n > 0 {
			wantShifts[s.Src] = float64(n)
		}
	}
	gotShifts := map[string]float64{}
	var sawWear, sawOcc, sawHist bool
	for _, s := range samples {
		switch s.Name {
		case "coruscant_dbc_shift_steps_total":
			gotShifts[s.Labels["dbc"]] = s.Value
		case "coruscant_dbc_row_writes_total":
			sawWear = true
		case "coruscant_dbc_head_occupancy_cycles_total":
			sawOcc = true
		case "coruscant_dbc_shift_distance_steps_bucket":
			sawHist = true
		}
	}
	for dbcName, want := range wantShifts {
		if gotShifts[dbcName] != want {
			t.Errorf("shift_steps_total{dbc=%q} = %v, want %v", dbcName, gotShifts[dbcName], want)
		}
	}
	if !sawWear || !sawOcc || !sawHist {
		t.Errorf("exposition missing series: wear=%v occupancy=%v histogram=%v", sawWear, sawOcc, sawHist)
	}
}

// TestParsePrometheusRejectsMalformed pins the validator's teeth.
func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no type declaration", "foo_total{a=\"b\"} 1\n"},
		{"bad value", "# TYPE foo_total counter\nfoo_total{a=\"b\"} xyz\n"},
		{"unterminated labels", "# TYPE foo_total counter\nfoo_total{a=\"b\" 1\n"},
		{"bad label name", "# TYPE foo_total counter\nfoo_total{9a=\"b\"} 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{dbc=\"x\"} 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			"h_bucket{dbc=\"x\",port=\"any\",le=\"1\"} 5\n" +
			"h_bucket{dbc=\"x\",port=\"any\",le=\"3\"} 2\n"},
	}
	for _, tc := range cases {
		if _, err := profile.ParsePrometheus(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
}

// TestHandlerServesExposition mounts the handler the way coruscant's
// -debug-addr does and scrapes it over HTTP.
func TestHandlerServesExposition(t *testing.T) {
	cfg := params.DefaultConfig()
	p := profile.New(cfg)
	rec := telemetry.NewRecorder(cfg, p)
	workload(t, cfg, rec)

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	samples, err := profile.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("scrape returned no samples")
	}
}

// TestTopViewFromScrape rebuilds the `coruscant top` rows from a
// scrape and checks the ordering, hottest-row pick, and rendering.
func TestTopViewFromScrape(t *testing.T) {
	cfg := params.DefaultConfig()
	p := profile.New(cfg)
	rec := telemetry.NewRecorder(cfg, p)
	workload(t, cfg, rec)

	var buf bytes.Buffer
	if err := p.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := profile.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := profile.TopFromSamples(samples)
	if len(rows) != 2 {
		t.Fatalf("top rows = %d, want 2", len(rows))
	}
	if rows[0].Cycles < rows[1].Cycles {
		t.Errorf("rows not sorted by cycles: %d then %d", rows[0].Cycles, rows[1].Cycles)
	}
	snaps := p.Snapshot()
	bySrc := map[string]int{}
	for i, s := range snaps {
		bySrc[s.Src] = i
	}
	for _, r := range rows {
		s := snaps[bySrc[r.DBC]]
		if r.Shifts != s.ShiftSteps() {
			t.Errorf("%s: top shifts %d != snapshot %d", r.DBC, r.Shifts, s.ShiftSteps())
		}
		if r.Wear != s.WearTotal() {
			t.Errorf("%s: top wear %d != snapshot %d", r.DBC, r.Wear, s.WearTotal())
		}
		hotRow, hotWear := s.HottestRow()
		if hotWear > 0 && r.HotWear != hotWear {
			t.Errorf("%s: hottest row %d:%d != snapshot %d:%d", r.DBC, r.HotRow, r.HotWear, hotRow, hotWear)
		}
		if s.ShiftDist.Total() > 0 {
			if want := s.ShiftDist.P95(); r.ShiftP95 != want {
				t.Errorf("%s: top p95 %d != hist p95 %d", r.DBC, r.ShiftP95, want)
			}
		}
	}

	var out bytes.Buffer
	profile.RenderTop(&out, rows, 10)
	text := out.String()
	for _, r := range rows {
		if !strings.Contains(text, r.DBC) {
			t.Errorf("rendered top lacks %s:\n%s", r.DBC, text)
		}
	}
	out.Reset()
	profile.RenderTop(&out, nil, 10)
	if !strings.Contains(out.String(), "no profiled activity") {
		t.Errorf("empty render = %q", out.String())
	}
}

// TestChromeCountersValidate attaches the profiler's counter stream to
// a Chrome sink and checks the export validates — counter records with
// args, monotonic timestamps — and actually contains 'C' events.
func TestChromeCountersValidate(t *testing.T) {
	cfg := params.DefaultConfig()
	var buf bytes.Buffer
	chrome := telemetry.NewChromeSink(&buf)
	p := profile.New(cfg, profile.WithChromeCounters(chrome, 4))
	rec := telemetry.NewRecorder(cfg, chrome, p)
	workload(t, cfg, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	records, err := telemetry.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var counters int
	for _, r := range records {
		if r.Ph == "C" {
			counters++
			if len(r.Args) == 0 {
				t.Fatalf("counter record without args: %+v", r)
			}
		}
	}
	if counters == 0 {
		t.Fatal("no counter events in export")
	}
}

// TestProfilerOverheadIsSinkOnly checks a recorder without the
// profiler emits no per-source spatial state — i.e. attaching the
// profiler is the only cost, there is no always-on registry.
func TestProfilerOverheadIsSinkOnly(t *testing.T) {
	cfg := params.DefaultConfig()
	p := profile.New(cfg)
	if got := len(p.Snapshot()); got != 0 {
		t.Fatalf("fresh profiler has %d sources", got)
	}
	if got := p.ShiftStepsBySource(); len(got) != 0 {
		t.Fatalf("fresh profiler reports shifts %v", got)
	}
	var buf bytes.Buffer
	if err := p.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.ParsePrometheus(&buf); err != nil {
		t.Fatalf("empty exposition does not validate: %v", err)
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
