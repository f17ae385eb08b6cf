package pim

import (
	"fmt"
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
)

// kernel names one PIM kernel call and runs it on u.
type kernel struct {
	name string
	run  func(u *Unit) error
}

// windowKernels are the kernels that place operands in the TR window,
// each run on zero operand rows of the unit's width.
var windowKernels = []kernel{
	{"add2", func(u *Unit) error { _, err := u.AddMulti(zeroRows(u, 2), 8); return err }},
	{"addmax", func(u *Unit) error { _, err := u.AddMulti(zeroRows(u, u.maxAddOperands()), 8); return err }},
	{"xor2", func(u *Unit) error { _, err := u.BulkBitwise(dbc.OpXOR, zeroRows(u, 2)); return err }},
	{"xorfull", func(u *Unit) error { _, err := u.BulkBitwise(dbc.OpXOR, zeroRows(u, int(u.TRD()))); return err }},
	{"not", func(u *Unit) error { _, err := u.BulkBitwise(dbc.OpNOT, zeroRows(u, 1)); return err }},
	{"vote3", func(u *Unit) error { _, err := u.Vote(zeroRows(u, 3)); return err }},
	{"select", func(u *Unit) error { r := zeroRows(u, 2); _, err := u.MaxSelect(r[0], r[1], 8); return err }},
	{"tournament", func(u *Unit) error { _, err := u.MaxTR(zeroRows(u, 3), 8); return err }},
	{"reduce", func(u *Unit) error { _, err := u.Reduce(zeroRows(u, 3), 8); return err }},
	{"div", func(u *Unit) error { r := zeroRows(u, 2); _, _, err := u.DivMod(r[0], r[1], 8); return err }},
	{"mult8", func(u *Unit) error { r := zeroRows(u, 2); _, err := u.Multiply(r[0], r[1], 4); return err }},
	{"fma8", func(u *Unit) error { r := zeroRows(u, 3); _, err := u.FMA(r[0], r[1], r[2], 4); return err }},
	{"mult16", func(u *Unit) error { r := zeroRows(u, 2); _, err := u.Multiply(r[0], r[1], 8); return err }},
	{"fma16", func(u *Unit) error { r := zeroRows(u, 3); _, err := u.FMA(r[0], r[1], r[2], 8); return err }},
}

func zeroRows(u *Unit, k int) []dbc.Row {
	rows := make([]dbc.Row, k)
	for i := range rows {
		rows[i] = dbc.NewRow(u.Width())
	}
	return rows
}

// TestWindowKernelEntryTrace pins, per TRD, each window kernel's shift
// steps, cycles and exit offset entered at rest and at head offset +1
// (shifts/cycles>exit). Entered at +1, a kernel goes in through the
// right port and pays no walk back to rest: the same steps as at rest,
// one shift more for TRD 3's two-operand adds (the right side takes the
// final shift the left side skips), exiting left of where it entered.
// The TW tournament, Reduce and TRD 3's two-placement subtraction
// (select, div) walk back first: one step more, the exit of a run at
// rest. The multiplier places its partial products once where one
// addition takes them all (mult8 and fma8 at TRD 7: 25 and 27 cycles,
// 33 and 37 when they were placed twice); bw 8 (mult16, fma16) keeps the
// reduction path and Table III's 61 cycles at TRD 7 and 80 at TRD 3.
func TestWindowKernelEntryTrace(t *testing.T) {
	want := map[params.TRD][]string{
		params.TRD3: {
			"add2 1/19>1 2/20>-1", "addmax 1/19>1 2/20>-1", "xor2 2/6>2 2/6>-1", "xorfull 2/7>2 2/7>-1",
			"not 1/4>1 1/4>0", "vote3 2/7>2 2/7>-1", "select 3/42>1 4/43>1", "tournament 2/62>2 3/63>2",
			"reduce 2/8>2 3/9>2", "div 39/337>1 40/338>1", "mult8 6/36>1 7/37>-1", "fma8 8/43>1 9/44>-1",
			"mult16 14/80>1 15/81>-1", "fma16 16/87>1 17/88>-1",
		},
		params.TRD5: {
			"add2 2/20>2 2/20>-1", "addmax 3/22>3 3/22>-2", "xor2 2/6>2 2/6>-1", "xorfull 4/11>4 4/11>-3",
			"not 1/4>1 1/4>0", "vote3 4/10>4 4/10>-3", "select 3/25>3 3/25>-2", "tournament 2/94>2 3/95>2",
			"reduce 2/9>2 3/10>2", "div 25/173>3 25/173>-2", "mult8 7/35>3 7/35>-2", "fma8 8/37>3 8/37>-2",
			"mult16 14/73>3 14/73>-2", "fma16 16/77>3 16/77>-2",
		},
		params.TRD7: {
			"add2 2/20>2 2/20>-1", "addmax 5/26>5 5/26>-4", "xor2 2/6>2 2/6>-1", "xorfull 6/15>6 6/15>-5",
			"not 1/4>1 1/4>0", "vote3 5/12>5 5/12>-4", "select 3/25>3 3/25>-2", "tournament 2/126>2 3/127>2",
			"reduce 2/9>2 3/10>2", "div 25/173>3 25/173>-2", "mult8 4/25>4 4/25>-3", "fma8 5/27>5 5/27>-4",
			"mult16 12/61>4 12/61>-3", "fma16 14/65>5 14/65>-4",
		},
	}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for i, k := range windowKernels {
			got := k.name
			for _, entry := range []int{0, 1} {
				u := unitFor(t, trd, 512)
				if err := u.D.Shift(entry); err != nil {
					t.Fatal(err)
				}
				u.ResetStats()
				if err := k.run(u); err != nil {
					t.Fatalf("%v %s: %v", trd, k.name, err)
				}
				st := u.Stats()
				got += fmt.Sprintf(" %d/%d>%d", st.ShiftSteps, st.Cycles(), u.D.Offset())
			}
			if got != want[trd][i] {
				t.Errorf("%v: %s, want %s", trd, got, want[trd][i])
			}
		}
	}
}
