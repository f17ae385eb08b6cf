package experiments

import (
	"regexp"
	"strings"
	"testing"
)

// TestAblationTableMatchesExperiment holds EXPERIMENTS.md's
// "Design-choice ablations" table to the ablation experiment: row by
// row, the numbers its With and Without cells state must be the ones
// the experiment prints (the document writes "134 cyc" where the
// experiment prints 134, and drops the experiment's "err" unit).
func TestAblationTableMatchesExperiment(t *testing.T) {
	rows := markdownTable(t, readExperimentsDoc(t), "## Design-choice ablations")
	tb, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range [][]string{rows[0], tb.Header} {
		if len(h) < 3 || h[1] != "With" || h[2] != "Without" {
			t.Fatalf("header %q: want With and Without in columns 2 and 3", h)
		}
	}
	rows = rows[1:]
	if len(rows) != len(tb.Rows) {
		t.Fatalf("EXPERIMENTS.md lists %d ablations, the experiment prints %d", len(rows), len(tb.Rows))
	}
	for i, row := range rows {
		for col := 1; col <= 2; col++ {
			got, want := numbersIn(row[col]), numbersIn(tb.Rows[i][col])
			if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s, %s: EXPERIMENTS.md says %q, the experiment prints %q",
					row[0], tb.Header[col], row[col], tb.Rows[i][col])
			}
		}
	}
}

// markdownTable returns the cells of the first table after the heading
// line: the header row, then the data rows (the |---| rule dropped).
func markdownTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	at := strings.Index(doc, "\n"+heading)
	if at < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(doc[at+1:], "\n")[1:] {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("%q: no table rows", heading)
	}
	return rows
}

var numberRe = regexp.MustCompile(`\d+(\.\d+)?(e[-+]?\d+)?`)

// numbersIn returns the numbers a table cell states, in order.
func numbersIn(cell string) []string { return numberRe.FindAllString(cell, -1) }
