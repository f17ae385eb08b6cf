package compile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// tinyCfg is a one-bank geometry small enough that home rows are a
// scarce resource: one PIM DBC (8 rows) plus two staging DBCs (16
// rows) serve the whole program.
func tinyCfg() params.Config {
	cfg := params.DefaultConfig()
	cfg.Geometry = params.Geometry{
		Banks:            1,
		SubarraysPerBank: 1,
		TilesPerSubarray: 2,
		DBCsPerTile:      2,
		PIMDBCsPerTile:   1,
		PIMTilesPerSub:   1,
		TrackWidth:       64,
		RowsPerDBC:       8,
	}
	cfg.TRD = params.TRD3
	return cfg
}

// chainProg builds %v1 = %a+1, %v2 = %v1+1, ... %vN stored: a serial
// chain whose intermediates die immediately, the recycling pass's best
// case and the no-recycle layout's worst case.
func chainProg(n int) string {
	var b strings.Builder
	b.WriteString("%a = load b0.s0.t1.d0.r0\n%k = li 1 bs=8\n")
	prev := "a"
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%%v%d = add %%%s, %%k bs=8\n", i, prev)
		prev = fmt.Sprintf("v%d", i)
	}
	fmt.Fprintf(&b, "store %%%s, b0.s0.t1.d0.r1\n", prev)
	return b.String()
}

// compileNoRecycle compiles src at -O1 with liveness recycling turned
// off: Compile's passes, through place's ablation switch.
func compileNoRecycle(src string, cfg params.Config) (*Plan, error) {
	s := new(scratch)
	if err := s.parse(src, cfg.Geometry); err != nil {
		return nil, err
	}
	if err := s.lz.legalize(&s.Program, cfg.TRD, 1); err != nil {
		return nil, err
	}
	if err := s.lay.place(&s.Program, cfg, 1, false); err != nil {
		return nil, err
	}
	return s.sch.build(&s.Program, &s.lay)
}

// TestRecyclingExtendsCapacity is the ROADMAP capacity claim: a chain
// long enough to exhaust every free row of the tiny bank fails to
// place without liveness recycling, and compiles — and still computes
// the right value — with it.
func TestRecyclingExtendsCapacity(t *testing.T) {
	cfg := tinyCfg()
	const n = 40
	src := chainProg(n)

	if _, err := compileNoRecycle(src, cfg); err == nil {
		t.Fatalf("%d-op chain placed without recycling; the exhaustion premise broke", n)
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("want a rows-exhausted error, got: %v", err)
	}

	res, err := Compile(src, cfg, Options{Level: 1})
	if err != nil {
		t.Fatalf("recycling compile: %v", err)
	}
	if res.Stats.RowsRecycled == 0 {
		t.Error("RowsRecycled = 0; the chain's dead intermediates were not reclaimed")
	}

	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes := []uint64{3, 7, 11, 200, 0, 50, 90, 255}
	if err := m.WriteRow(isa.Addr{Tile: 1}, pim.MustPackLanes(lanes, 8, 64)); err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Run(m); err != nil {
		t.Fatal(err)
	}
	row, err := m.ReadRow(isa.Addr{Tile: 1, Row: 1})
	if err != nil {
		t.Fatal(err)
	}
	for l, got := range pim.UnpackLanes(row, 8) {
		if want := (lanes[l] + n) & 0xFF; got != want {
			t.Errorf("lane %d = %d, want %d (input %d + %d)", l, got, want, lanes[l], n)
		}
	}
}

// TestRecyclingBitIdentical: on a chain every layout can fit, the
// recycled -O1 plan, the no-recycle -O1 plan and the naive -O0 plan
// must all store bit-identical rows — recycling changes where values
// transiently live, never what they compute.
func TestRecyclingBitIdentical(t *testing.T) {
	cfg := tinyCfg()
	src := chainProg(6)
	lanes := []uint64{1, 2, 3, 4, 250, 251, 252, 253}

	run := func(pl *Plan, err error) dbc.Row {
		t.Helper()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteRow(isa.Addr{Tile: 1}, pim.MustPackLanes(lanes, 8, 64)); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(m); err != nil {
			t.Fatalf("run: %v", err)
		}
		row, err := m.ReadRow(isa.Addr{Tile: 1, Row: 1})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}

	compiled := func(level int) (*Plan, error) {
		res, err := Compile(src, cfg, Options{Level: level})
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
	recycled := run(compiled(1))
	plain := run(compileNoRecycle(src, cfg))
	naive := run(compiled(0))
	if !recycled.Equal(plain) {
		t.Error("recycled -O1 differs from no-recycle -O1")
	}
	if !recycled.Equal(naive) {
		t.Error("recycled -O1 differs from naive -O0")
	}
}

// TestShiftCostModelRegression pins the head-relative shift pricing on
// a fixed program. The old model charged every access the full
// port-to-row distance as if the head re-centred between accesses,
// which overstated both layouts (the naive one most, since it never
// revisits nearby rows). The head-relative model prices what the
// nanowire actually does: each DBC's head moves from wherever the last
// access left it, and every kernel shifts as the kernel cost table
// measured it from that entry offset.
func TestShiftCostModelRegression(t *testing.T) {
	cfg := testCfg(params.TRD7)
	src := `%a = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%c = load b0.s0.t1.d0.r2
%k = li 3 bs=8
%s = add %a, %b, %c bs=8
%d = sub %s, %k bs=8
%x = xor %d, %a bs=8
store %x, b0.s0.t2.d0.r4
store %s, b0.s0.t2.d0.r5
`
	res, err := Compile(src, cfg, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Compile(src, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Golden values for the fixed program above under the head-relative
	// model; recompute from a trusted build when the placement policy
	// itself changes. The old port-midpoint model priced the same
	// layouts noticeably higher on both sides (it charged each access
	// the full port distance even when the head was already adjacent),
	// inflating the placement win. Both values count kernel
	// shifts too: the same 9 steps (add k=3 twice, not, xor) at -O1 on
	// fresh exec DBCs and naive on its one exec DBC, where each kernel
	// enters through the port on the head's side of rest. Before it
	// did, naive paid 7 more to walk the head back from the previous
	// kernel's exit offset (91).
	if got, want := naive.Stats.PortShifts, 84; got != want {
		t.Errorf("naive PortShifts = %d, want %d", got, want)
	}
	if got, want := res.Stats.PortShifts, 38; got != want {
		t.Errorf("-O1 PortShifts = %d, want %d", got, want)
	}
	if res.Stats.PortShifts >= naive.Stats.PortShifts {
		t.Errorf("-O1 shifts (%d) not below naive (%d)", res.Stats.PortShifts, naive.Stats.PortShifts)
	}
}
