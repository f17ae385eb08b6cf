package profile

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Prometheus text exposition (format version 0.0.4) of the profiler
// aggregate. Metric names:
//
//	coruscant_dbc_steps_total{dbc,op}            control steps / instants per op kind
//	coruscant_dbc_energy_picojoules_total{dbc,op} energy per op kind
//	coruscant_dbc_shift_steps_total{dbc}         shift steps (wear on the whole wire)
//	coruscant_dbc_row_reads_total{dbc,row}       per-row port reads
//	coruscant_dbc_row_writes_total{dbc,row}      per-row write wear (port writes + TWs)
//	coruscant_dbc_head_occupancy_cycles_total{dbc,offset} shift steps ending at offset
//	coruscant_dbc_shift_distance_steps{dbc,port} align-distance histogram per port
//	                                             (+ the all-port series with port="any")
//
// Histograms use the telemetry.Hist log2 buckets rendered as cumulative
// le= series plus _sum and _count, so any Prometheus scraper computes
// quantiles the standard way.

// WritePrometheus writes the profiler aggregate in Prometheus text
// exposition format.
func (p *Profiler) WritePrometheus(w io.Writer) error {
	return WriteManyPrometheus(w, p)
}

// labeledSnaps is one profiler's contribution to an exposition page:
// its snapshot plus the constant-label prefix (WithLabel) each of its
// sample lines carries.
type labeledSnaps struct {
	prefix string
	snaps  []DBCSnapshot
}

// WriteManyPrometheus writes one combined exposition page for several
// profilers — each # HELP/# TYPE header exactly once per family, then
// every profiler's samples. Give each profiler a distinguishing
// constant label (WithLabel, e.g. shard="3") or their same-named DBC
// series will collide on the page the way any two Prometheus targets
// would.
func WriteManyPrometheus(w io.Writer, profs ...*Profiler) error {
	bw := bufio.NewWriter(w)
	all := make([]labeledSnaps, len(profs))
	for i, p := range profs {
		all[i] = labeledSnaps{prefix: p.labels, snaps: p.Snapshot()}
	}

	writeHeader(bw, "coruscant_dbc_steps_total", "counter",
		"Control steps and instant events per DBC and op kind.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for op, n := range s.Steps {
				if n == 0 {
					continue
				}
				fmt.Fprintf(bw, "coruscant_dbc_steps_total{%sdbc=%q,op=%q} %d\n",
					ls.prefix, s.Src, telemetry.Op(op), n)
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_energy_picojoules_total", "counter",
		"Energy per DBC and op kind, in picojoules.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for op, e := range s.EnergyPJ {
				if e == 0 {
					continue
				}
				fmt.Fprintf(bw, "coruscant_dbc_energy_picojoules_total{%sdbc=%q,op=%q} %s\n",
					ls.prefix, s.Src, telemetry.Op(op), formatFloat(e))
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_shift_steps_total", "counter",
		"Domain-wall shift steps per DBC (whole-wire wear).")
	for _, ls := range all {
		for _, s := range ls.snaps {
			if n := s.ShiftSteps(); n > 0 {
				fmt.Fprintf(bw, "coruscant_dbc_shift_steps_total{%sdbc=%q} %d\n", ls.prefix, s.Src, n)
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_busy_cycles_total", "counter",
		"Control-step cycles per DBC — the busy timeline makespan accounting maximizes over.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			if s.Cycles > 0 {
				fmt.Fprintf(bw, "coruscant_dbc_busy_cycles_total{%sdbc=%q} %d\n", ls.prefix, s.Src, s.Cycles)
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_row_reads_total", "counter",
		"Access-port reads per DBC data row.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for row, n := range s.RowReads {
				if n > 0 {
					fmt.Fprintf(bw, "coruscant_dbc_row_reads_total{%sdbc=%q,row=\"%d\"} %d\n",
						ls.prefix, s.Src, row, n)
				}
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_row_writes_total", "counter",
		"Write wear (port writes and transverse writes) per DBC data row.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for row, n := range s.RowWrites {
				if n > 0 {
					fmt.Fprintf(bw, "coruscant_dbc_row_writes_total{%sdbc=%q,row=\"%d\"} %d\n",
						ls.prefix, s.Src, row, n)
				}
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_head_occupancy_cycles_total", "counter",
		"Shift steps ending with the access-port heads at each offset.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			offs := make([]int, 0, len(s.Occupancy))
			for off := range s.Occupancy {
				offs = append(offs, off)
			}
			sort.Ints(offs)
			for _, off := range offs {
				fmt.Fprintf(bw, "coruscant_dbc_head_occupancy_cycles_total{%sdbc=%q,offset=\"%d\"} %d\n",
					ls.prefix, s.Src, off, s.Occupancy[off])
			}
		}
	}

	writeHeader(bw, "coruscant_dbc_shift_distance_steps", "histogram",
		"Align distance (consecutive shift-step run length) per access port.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for port := 0; port < numPorts; port++ {
				writeHist(bw, ls.prefix, s.Src, portNames[port], &s.PortDist[port])
			}
			writeHist(bw, ls.prefix, s.Src, "any", &s.ShiftDist)
		}
	}

	// The exact maximum alongside the log2 histogram: scrapers clamp
	// bucket-edge quantile estimates to it, the same way
	// telemetry.Hist.Quantile does.
	writeHeader(bw, "coruscant_dbc_shift_distance_steps_max", "gauge",
		"Largest observed align distance per access port.")
	for _, ls := range all {
		for _, s := range ls.snaps {
			for port := 0; port < numPorts; port++ {
				if s.PortDist[port].Total() > 0 {
					fmt.Fprintf(bw, "coruscant_dbc_shift_distance_steps_max{%sdbc=%q,port=%q} %d\n",
						ls.prefix, s.Src, portNames[port], s.PortDist[port].Max())
				}
			}
			if s.ShiftDist.Total() > 0 {
				fmt.Fprintf(bw, "coruscant_dbc_shift_distance_steps_max{%sdbc=%q,port=\"any\"} %d\n",
					ls.prefix, s.Src, s.ShiftDist.Max())
			}
		}
	}

	return bw.Flush()
}

func writeHeader(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteScalar writes a family of one unlabelled sample, a counter or a
// gauge: its # HELP and # TYPE header, then the line "name val".
func WriteScalar[T int64 | uint64](w io.Writer, name, kind, help string, val T) {
	writeHeader(w, name, kind, help)
	fmt.Fprintf(w, "%s %d\n", name, val)
}

// writeHist renders one telemetry.Hist as a cumulative Prometheus
// histogram. Bucket i of the log2 histogram holds values with
// bit-length i, i.e. values <= (1<<i)-1, which becomes the le= edge.
func writeHist(w io.Writer, prefix, dbc, port string, h *telemetry.Hist) {
	total := h.Total()
	if total == 0 {
		return
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if n == 0 && i > 0 {
			continue
		}
		upper := uint64(1)<<uint(i) - 1
		fmt.Fprintf(w, "coruscant_dbc_shift_distance_steps_bucket{%sdbc=%q,port=%q,le=\"%d\"} %d\n",
			prefix, dbc, port, upper, cum)
	}
	fmt.Fprintf(w, "coruscant_dbc_shift_distance_steps_bucket{%sdbc=%q,port=%q,le=\"+Inf\"} %d\n",
		prefix, dbc, port, total)
	fmt.Fprintf(w, "coruscant_dbc_shift_distance_steps_sum{%sdbc=%q,port=%q} %d\n",
		prefix, dbc, port, h.Sum())
	fmt.Fprintf(w, "coruscant_dbc_shift_distance_steps_count{%sdbc=%q,port=%q} %d\n",
		prefix, dbc, port, total)
}

// formatFloat renders an energy value without exponent notation and
// without trailing zero noise.
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Handler returns an http.Handler serving WritePrometheus, suitable
// for mounting at /metrics on the -debug-addr mux.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.WritePrometheus(w)
	})
}

// Sample is one parsed Prometheus sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses text exposition format into samples, checking
// the structural rules WritePrometheus promises: every sample belongs
// to a # TYPE-declared metric family (histograms own their _bucket,
// _sum and _count series), labels are well-formed, values are valid
// floats, and histogram buckets are cumulative in le= order. It is
// both the consumer behind `coruscant top` and the format validator
// the tests run against WritePrometheus output.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := make(map[string]string) // family -> type
	var samples []Sample
	// histogram cumulativity check: family+dbc+port -> last cumulative count
	lastCum := make(map[string]float64)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("profile: line %d: %w", line, err)
		}
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return nil, fmt.Errorf("profile: line %d: sample %q has no # TYPE declaration", line, s.Name)
		}
		if strings.HasSuffix(s.Name, "_bucket") && typed[family] == "histogram" {
			le, ok := s.Labels["le"]
			if !ok {
				return nil, fmt.Errorf("profile: line %d: histogram bucket without le label", line)
			}
			key := family + "|" + s.Labels["shard"] + "|" + s.Labels["dbc"] + "|" + s.Labels["port"]
			if prev, seen := lastCum[key]; seen && s.Value < prev {
				return nil, fmt.Errorf("profile: line %d: bucket le=%q count %g below previous %g (not cumulative)",
					line, le, s.Value, prev)
			}
			lastCum[key] = s.Value
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(text string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		s.Name = text[:i]
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unterminated label set in %q", text)
		}
		if err := parseLabels(text[i+1:j], s.Labels); err != nil {
			return Sample{}, err
		}
		rest = strings.TrimSpace(text[j+1:])
	} else {
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return Sample{}, fmt.Errorf("want \"name value\", got %q", text)
		}
		s.Name, rest = fields[0], fields[1]
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return Sample{}, fmt.Errorf("bad metric name in %q", text)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad sample value in %q: %w", text, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("bad label in %q", body)
		}
		name := body[:eq]
		if !validMetricName(name) {
			return fmt.Errorf("bad label name %q", name)
		}
		val, rest, err := scanQuoted(body[eq+1:])
		if err != nil {
			return err
		}
		into[name] = val
		body = strings.TrimPrefix(rest, ",")
	}
	return nil
}

// scanQuoted consumes a leading double-quoted string (with \" and \\
// escapes) and returns its unescaped value and the remainder.
func scanQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string in %q", s)
}

func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
