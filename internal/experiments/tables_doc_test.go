package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readExperimentsDoc returns EXPERIMENTS.md.
func readExperimentsDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// sameNumbers reports whether a document cell states exactly the
// numbers of the printed cells, in order and at the printed digits.
func sameNumbers(cell string, printed ...string) bool {
	return strings.Join(numbersIn(cell), " ") == strings.Join(numbersIn(strings.Join(printed, " ")), " ")
}

// TestTable3MatchesExperiment holds the Measured cells of EXPERIMENTS.md's
// Table III CORUSCANT rows to `coruscant table3`: each row's cycles and
// pJ must be the numbers Table3 prints for the same scheme (the document
// writes "2op add TR=3" where the experiment prints "2op add (TR=3)").
// The multiply rows are the costs a change to the multiplier's
// choreography must not move unnoticed.
func TestTable3MatchesExperiment(t *testing.T) {
	rows := markdownTable(t, readExperimentsDoc(t), "## Table III — operation comparison (8-bit)")
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if h := rows[0]; len(h) < 5 || h[2] != "Measured" || h[4] != "Measured" {
		t.Fatalf("header %q: want Measured cycles and pJ in columns 3 and 5", h)
	}
	if h := tb.Header; h[2] != "Cycles" || h[4] != "Energy pJ" {
		t.Fatalf("experiment header %q: want Cycles and Energy pJ in columns 3 and 5", h)
	}
	printed := map[string][]string{}
	for _, r := range tb.Rows {
		if r[0] == "CORUSCANT" {
			printed[r[0]+" "+strings.NewReplacer("(", "", ")", "").Replace(r[1])] = r
		}
	}
	checked := 0
	for _, row := range rows[1:] {
		if !strings.HasPrefix(row[0], "CORUSCANT ") {
			continue
		}
		want, ok := printed[row[0]]
		if !ok {
			t.Errorf("EXPERIMENTS.md row %q: the experiment prints no such row", row[0])
			continue
		}
		checked++
		for _, col := range []int{2, 4} {
			if !sameNumbers(row[col], want[col]) {
				t.Errorf("%s, %s: EXPERIMENTS.md says %q, the experiment prints %q", row[0], tb.Header[col], row[col], want[col])
			}
		}
	}
	if checked != len(printed) {
		t.Errorf("EXPERIMENTS.md lists %d CORUSCANT rows, the experiment prints %d", checked, len(printed))
	}
}

// TestSensitivityTableMatchesExperiment holds the add and mult cells of
// EXPERIMENTS.md's sensitivity table ("cycles / pJ") to `coruscant sens`,
// row by row.
func TestSensitivityTableMatchesExperiment(t *testing.T) {
	rows := markdownTable(t, readExperimentsDoc(t), "## Sensitivity study (`coruscant sens`)")
	tb, err := Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if h := rows[0]; len(h) < 4 || h[2] != "add cyc/pJ" || h[3] != "mult cyc/pJ" {
		t.Fatalf("header %q: want add and mult cyc/pJ in columns 3 and 4", h)
	}
	if h := tb.Header; h[2] != "add cyc" || h[3] != "add pJ" || h[4] != "mult cyc" || h[5] != "mult pJ" {
		t.Fatalf("experiment header %q: want add and mult cycles and pJ in columns 3 to 6", h)
	}
	rows = rows[1:]
	if len(rows) != len(tb.Rows) {
		t.Fatalf("EXPERIMENTS.md lists %d TRDs, the experiment prints %d", len(rows), len(tb.Rows))
	}
	for i, row := range rows {
		want := tb.Rows[i]
		if row[0] != want[0] {
			t.Errorf("row %d: EXPERIMENTS.md says TRD %s, the experiment prints %s", i+1, row[0], want[0])
		}
		if !sameNumbers(row[2], want[2], want[3]) {
			t.Errorf("TRD %s, add: EXPERIMENTS.md says %q, the experiment prints %s / %s", want[0], row[2], want[2], want[3])
		}
		if !sameNumbers(row[3], want[4], want[5]) {
			t.Errorf("TRD %s, mult: EXPERIMENTS.md says %q, the experiment prints %s / %s", want[0], row[3], want[4], want[5])
		}
	}
}

// TestTOPSMatchesExperiment holds EXPERIMENTS.md's §V-E table to
// `coruscant tops`: each row's Paper and Measured cells must state the
// numbers TOPS prints for the metric the row ends with, at the printed
// digits (the document writes "Peak 8-bit convolution TOPS" where the
// experiment prints "TOPS").
func TestTOPSMatchesExperiment(t *testing.T) {
	rows := markdownTable(t, readExperimentsDoc(t), "## §V-E TOPS / GOPJ")
	tb, err := TOPS()
	if err != nil {
		t.Fatal(err)
	}
	if h := rows[0]; len(h) != 3 || h[1] != "Paper" || h[2] != "Measured" {
		t.Fatalf("header %q: want Paper and Measured in columns 2 and 3", h)
	}
	if h := tb.Header; h[1] != "Measured" || h[2] != "Paper" {
		t.Fatalf("experiment header %q: want Measured and Paper in columns 2 and 3", h)
	}
	rows = rows[1:]
	if len(rows) != len(tb.Rows) {
		t.Fatalf("EXPERIMENTS.md lists %d metrics, the experiment prints %d", len(rows), len(tb.Rows))
	}
	for i, row := range rows {
		want := tb.Rows[i]
		if !strings.HasSuffix(row[0], want[0]) {
			t.Errorf("row %d: EXPERIMENTS.md says %q, the experiment prints %s", i+1, row[0], want[0])
		}
		if !sameNumbers(row[1], want[2]) {
			t.Errorf("%s, Paper: EXPERIMENTS.md says %q, the experiment prints %s", want[0], row[1], want[2])
		}
		if !sameNumbers(row[2], want[1]) {
			t.Errorf("%s, Measured: EXPERIMENTS.md says %q, the experiment prints %s", want[0], row[2], want[1])
		}
	}
}
