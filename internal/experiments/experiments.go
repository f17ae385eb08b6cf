// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (area), Table III (operation comparison),
// Table IV (CNN throughput), Table V (reliability), Table VI (CNN under
// NMR), Fig. 10 (Polybench latency), Fig. 11 (Polybench energy), and
// Fig. 12 (bitmap indices), plus the §V-E TOPS/GOPJ operating point.
//
// Each generator returns a Table carrying the measured values alongside
// the paper's published numbers where available, so EXPERIMENTS.md and
// the CLI can show both.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // experiment id, e.g. "table3", "fig10"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// registry is every experiment generator, in paper order: All runs
// them, ByID looks one up and IDs lists their identifiers.
var registry = []struct {
	id  string
	gen func() (*Table, error)
}{
	{"table1", Table1}, {"table3", Table3}, {"fig10", Fig10}, {"fig11", Fig11},
	{"fig12", Fig12}, {"table4", Table4}, {"table5", Table5}, {"table6", Table6},
	{"tops", TOPS}, {"sens", Sensitivity}, {"ablation", Ablation},
}

// All runs every experiment in paper order.
func All() ([]*Table, error) {
	out := make([]*Table, 0, len(registry))
	for _, e := range registry {
		t, err := e.gen()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID returns the named experiment generator.
func ByID(id string) (func() (*Table, error), error) {
	for _, e := range registry {
		if e.id == id {
			return e.gen, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func e2(v float64) string { return fmt.Sprintf("%.1e", v) }

// JSON renders the table as a machine-readable object for downstream
// plotting tools.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}, "", "  ")
}
