package compile

import (
	"fmt"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
)

// pairLoads are the two operand rows every pair case divides.
const pairLoads = "%a = load b0.s0.t1.d0.r0\n%b = load b0.s0.t1.d0.r1\n"

// pairCases are the div/mod shapes the -O2 schedule pairs into one
// DivMod request, and those it must leave alone: requests is the exec
// request count at -O0, -O1 and -O2, paired how many -O2 requests
// carry a remainder destination.
var pairCases = []struct {
	name     string
	src      string
	requests [3]int
	paired   int
}{
	{"div then mod", pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=8
%s = add %q, %r bs=8
store %s, b0.s0.t2.d0.r0
`, [3]int{3, 3, 2}, 1},
	{"mod before div", pairLoads + `%r = mod %a, %b bs=8
%q = div %a, %b bs=8
%s = add %q, %r bs=8
store %s, b0.s0.t2.d0.r0
`, [3]int{3, 3, 2}, 1},
	{"earlier div re-emitted as mod", pairLoads + `%q = div %a, %b bs=8
%t = add %q, %a bs=8
%r = mod %a, %b bs=8
%s = xor %t, %r bs=8
store %s, b0.s0.t2.d0.r0
`, [3]int{4, 4, 3}, 1},
	{"earlier mod re-emitted as div", pairLoads + `%r = mod %b, %a bs=16
%t = shr %r bs=16 imm=1
%q = div %b, %a bs=16
%s = or %t, %q bs=16
store %s, b0.s0.t2.d0.r0
`, [3]int{4, 4, 3}, 1},
	{"two blocksizes", pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=16
store %q, b0.s0.t2.d0.r0
store %r, b0.s0.t2.d0.r1
`, [3]int{2, 2, 2}, 0},
	{"mod dead", pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=8
store %q, b0.s0.t2.d0.r0
`, [3]int{1, 1, 1}, 0},
	{"mod dead after folding", pairLoads + `%z = li 0 bs=8
%q = div %a, %b bs=8
%r = mod %a, %b bs=8
%x = and %r, %z bs=8
%s = add %q, %x bs=8
store %s, b0.s0.t2.d0.r0
`, [3]int{4, 1, 1}, 0},
	{"repeated div", pairLoads + `%q = div %a, %b bs=8
%p = div %a, %b bs=8
%r = mod %a, %b bs=8
%s = add %q, %p, %r bs=8
store %s, b0.s0.t2.d0.r0
`, [3]int{4, 3, 2}, 1},
	{"both stored direct", pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=8
store %q, b0.s0.t2.d0.r0
store %r, b0.s0.t2.d0.r1
`, [3]int{2, 2, 1}, 1},
	{"both stored in another bank", pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=8
store %q, b1.s0.t2.d0.r0
store %r, b1.s0.t2.d0.r1
`, [3]int{2, 2, 1}, 1},
	{"remainder stored beside another result", pairLoads + `%c = load b0.s0.t1.d1.r2
%q = div %a, %b bs=8
%r = mod %a, %b bs=8
%h = add %c, %c bs=8
%s = add %q, %h bs=8
store %r, b0.s0.t2.d0.r0
store %h, b0.s0.t2.d0.r1
store %s, b0.s0.t2.d0.r2
`, [3]int{4, 4, 3}, 1},
}

// TestDivModPairRequests compiles every pair case at -O0, -O1 and -O2,
// counts the exec requests and the paired ones, and runs each plan:
// every level stores the rows -O0 stores. Only -O2 pairs.
func TestDivModPairRequests(t *testing.T) {
	cfg := testCfg(params.TRD7)
	for _, c := range pairCases {
		t.Run(c.name, func(t *testing.T) {
			var ref *memory.Memory
			for level := 0; level <= 2; level++ {
				res, err := Compile(c.src, cfg, Options{Level: level})
				if err != nil {
					t.Fatalf("-O%d: %v", level, err)
				}
				paired := 0
				for _, st := range res.Plan.Steps {
					for _, r := range st.Reqs {
						if r.Rem != nil {
							paired++
						}
					}
				}
				if res.Stats.Requests != c.requests[level] || (level == 2 && paired != c.paired) || (level < 2 && paired != 0) {
					t.Errorf("-O%d: %d requests, %d paired; want %d and %d\n%s", level, res.Stats.Requests, paired,
						c.requests[level], map[bool]int{true: c.paired}[level == 2], res.Plan)
				}
				m := seededRun(t, cfg, res)
				if ref == nil {
					ref = m
					continue
				}
				for _, out := range res.Outputs {
					got, want := mustReadRow(t, m, out.Addr), mustReadRow(t, ref, out.Addr)
					if !got.Equal(want) {
						t.Errorf("-O%d: %%%s differs from -O0", level, out.Name)
					}
				}
			}
		})
	}
}

// TestDivModPairModelExact holds the price of every pair case's plans
// to measured runs, to the step: a paired request reads its operands
// once, runs one kernel, writes the quotient and then the remainder,
// and locks the remainder's DBC in its batch window.
func TestDivModPairModelExact(t *testing.T) {
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := testCfg(trd)
		for _, c := range pairCases {
			res, err := Compile(c.src, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var inputs []seededInput
			for i, in := range res.Inputs {
				row := dbc.NewRow(cfg.Geometry.TrackWidth)
				for w := range row.Words {
					row.Words[w] = 0x9E3779B97F4A7C15 * uint64(i+w+1)
				}
				inputs = append(inputs, seededInput{in.Addr, row})
			}
			for _, level := range []int{0, 1, 2} {
				checkModel(t, cfg, trd.String()+"/"+c.name, c.src, inputs, level)
			}
		}
	}
}

// TestDivModPairStoresDirect: a pair whose quotient and remainder are
// both stored in the exec bank is one request writing both store rows
// itself, with no copy anywhere in the plan.
func TestDivModPairStoresDirect(t *testing.T) {
	src := pairLoads + `%q = div %a, %b bs=8
%r = mod %a, %b bs=8
store %q, b0.s0.t2.d0.r0
store %r, b0.s0.t2.d0.r1
`
	res, err := Compile(src, testCfg(params.TRD7), Options{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range res.Plan.Steps {
		for _, r := range st.Reqs {
			switch {
			case r.Kind != memory.KindExec:
				got = append(got, fmt.Sprintf("kind %d", r.Kind))
			case r.Rem == nil:
				got = append(got, r.In.Op.String())
			default:
				got = append(got, fmt.Sprintf("%v -> %s rem %s", r.In.Op, isa.FormatAddr(r.Dst), isa.FormatAddr(*r.Rem)))
			}
		}
	}
	want := "div -> b0.s0.t2.d0.r0 rem b0.s0.t2.d0.r1"
	if len(got) != 1 || got[0] != want {
		t.Errorf("plan requests %q, want just %q", got, want)
	}
}

// seededRun runs the compiled plan on a fresh memory whose input rows
// are filled with a fixed pattern, and returns the memory.
func seededRun(t *testing.T, cfg params.Config, res *Result) *memory.Memory {
	t.Helper()
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range res.Inputs {
		row := mustReadRow(t, m, in.Addr)
		for w := range row.Words {
			row.Words[w] = 0x9E3779B97F4A7C15 * uint64(i+w+1)
		}
		row.MaskTail()
		if err := m.WriteRow(in.Addr, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := res.Plan.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func mustReadRow(t *testing.T, m *memory.Memory, a isa.Addr) dbc.Row {
	t.Helper()
	row, err := m.ReadRow(a)
	if err != nil {
		t.Fatal(err)
	}
	return row
}
