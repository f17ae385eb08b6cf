package compile

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// refLanes evaluates a parsed program on the scalar reference, lane by
// lane on unsigned bs-bit lanes, and returns each store's lanes keyed
// by its address. in holds the loaded rows' lanes by address; every
// row has n lanes.
func refLanes(t *testing.T, p *Program, in map[isa.Addr][]uint64, n int) map[isa.Addr][]uint64 {
	t.Helper()
	vals := make(map[*node][]uint64, len(p.nodes))
	out := make(map[isa.Addr][]uint64)
	args := make([]uint64, 0, 8)
	for _, nd := range p.nodes {
		v := make([]uint64, n)
		for l := range v {
			args = args[:0]
			for _, a := range nd.args {
				args = append(args, vals[a][l])
			}
			switch nd.kind {
			case nLoad:
				v[l] = in[nd.addr][l]
			case nConst:
				v[l] = nd.val
			case nStore:
				v[l] = args[0]
			case nOp:
				v[l] = refOp(t, nd, args) & laneMask(nd.bs)
			}
		}
		vals[nd] = v
		if nd.kind == nStore {
			out[nd.addr] = v
		}
	}
	return out
}

// refOp is one op of the scalar reference on one lane, before masking.
func refOp(t *testing.T, n *node, args []uint64) uint64 {
	r := args[0]
	switch n.op {
	case isa.OpNot:
		return ^r
	case isa.OpShl:
		return r << uint(n.imm)
	case isa.OpShr:
		return r >> uint(n.imm)
	case opSub:
		return r - args[1]
	case isa.OpMult:
		return r * args[1]
	case isa.OpFma:
		return r*args[1] + args[2]
	}
	for _, x := range args[1:] {
		switch n.op {
		case isa.OpAdd:
			r += x
		case isa.OpAnd:
			r &= x
		case isa.OpOr:
			r |= x
		case isa.OpXor:
			r ^= x
		case isa.OpMax:
			r = max(r, x)
		default:
			t.Fatalf("no reference for %v", n.op)
		}
	}
	return r
}

// foldRun compiles src at the level, runs it on a fresh memory seeded
// with the given input lanes, and returns the result and the memory.
func foldRun(t *testing.T, cfg params.Config, src string, in map[isa.Addr][]uint64, bs, level int) (*Result, *memory.Memory, error) {
	t.Helper()
	res, err := Compile(src, cfg, Options{Level: level})
	if err != nil {
		t.Fatalf("-O%d: compile: %v\n%s", level, err, src)
	}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a, lanes := range in {
		if err := m.WriteRow(a, pim.MustPackLanes(lanes, bs, cfg.Geometry.TrackWidth)); err != nil {
			t.Fatal(err)
		}
	}
	return res, m, res.Plan.Run(m)
}

// TestFoldRules is one row per value-numbering and folding rule. Each
// program loads %a and %b, computes %s and stores not %s (no rule folds
// a not), so the kernels left are hand-countable: Stats.Requests must
// equal them at -O1 and -O2 and the unfolded count at -O0, and every
// level must store the scalar reference's row.
func TestFoldRules(t *testing.T) {
	const head = "%a = load b0.s0.t1.d0.r0\n%b = load b0.s0.t1.d0.r1\n%z = li 0 bs=8\n"
	const tail = "%r = not %s bs=8\nstore %r, b0.s0.t2.d0.r0\n"
	cases := []struct {
		name        string
		body        string
		naive, kept int // kernels at -O0 and at -O1/-O2
		narrowIn    bool
	}{
		{"load-numbering", "%a2 = load b0.s0.t1.d0.r0\n%s = xor %a, %a2 bs=8\n", 2, 1, false},
		{"const-numbering", "%k = li 7 bs=8\n%j = li 7 bs=8\n%s = xor %k, %a, %j bs=8\n", 2, 1, false},
		{"op-numbering", "%p = add %a, %b bs=8\n%q = add %b, %a bs=8\n%s = xor %p, %q, %a bs=8\n", 4, 1, false},
		{"sub-numbering", "%p = sub %a, %b bs=8\n%q = sub %a, %b bs=8\n%s = and %p, %q bs=8\n", 6, 3, false},
		{"shift-by-zero", "%s = shr %a bs=8 imm=0\n", 2, 1, false},
		{"shift-of-zero", "%s = shl %z bs=8 imm=3\n", 2, 1, false},
		{"shift-by-bs", "%s = shr %a bs=8 imm=8\n", 2, 1, false},
		{"shr-chain", "%p = shr %a bs=8 imm=2\n%s = shr %p bs=8 imm=3\n", 3, 2, false},
		{"shl-chain-to-zero", "%p = shl %a bs=8 imm=5\n%s = shl %p bs=8 imm=3\n", 3, 1, false},
		{"and-repeat", "%s = and %a, %b, %a bs=8\n", 2, 2, false},
		{"or-repeat", "%s = or %a, %a bs=8\n", 2, 1, false},
		{"max-repeat", "%s = max %b, %a, %b, %a bs=8\n", 2, 2, false},
		{"xor-pair-cancels", "%s = xor %a, %b, %a bs=8\n", 2, 1, false},
		{"xor-self-is-zero", "%s = xor %b, %b bs=8\n", 2, 1, false},
		{"add-zero-drops", "%s = add %a, %z, %b bs=8\n", 2, 2, false},
		{"max-zero-drops", "%s = max %z, %a bs=8\n", 2, 1, false},
		{"and-zero-is-zero", "%s = and %a, %z, %b bs=8\n", 2, 1, false},
		{"mult-zero-narrow-shr", "%n = shr %a bs=8 imm=4\n%s = mult %z, %n bs=8\n", 3, 1, false},
		{"mult-zero-narrow-const", "%k = li 15 bs=8\n%s = mult %k, %z bs=8\n", 2, 1, false},
		{"fma-zero-is-addend", "%n = shr %b bs=8 imm=5\n%s = fma %n, %z, %a bs=8\n", 3, 1, false},
		{"mult-zero-not-narrow", "%s = mult %z, %a bs=8\n", 2, 2, true},
	}
	cfg := testCfg(params.TRD7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := head + tc.body + tail
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			in := make(map[isa.Addr][]uint64)
			for r := 0; r < 2; r++ {
				lanes := make([]uint64, cfg.Geometry.TrackWidth/8)
				for l := range lanes {
					lanes[l] = rng.Uint64() & 0xFF
					if tc.narrowIn {
						lanes[l] &= 0xF
					}
				}
				in[isa.Addr{Tile: 1, Row: r}] = lanes
			}
			prog, err := Parse(src, cfg.Geometry)
			if err != nil {
				t.Fatal(err)
			}
			want := refLanes(t, prog, in, cfg.Geometry.TrackWidth/8)
			for _, level := range []int{0, 1, 2} {
				res, m, err := foldRun(t, cfg, src, in, 8, level)
				if err != nil {
					t.Fatalf("-O%d: run: %v", level, err)
				}
				kernels := tc.kept
				if level == 0 {
					kernels = tc.naive
				}
				if res.Stats.Requests != kernels {
					t.Errorf("-O%d: %d kernels, want %d", level, res.Stats.Requests, kernels)
				}
				for a, lanes := range want {
					row, err := m.ReadRow(a)
					if err != nil {
						t.Fatal(err)
					}
					if got := pim.UnpackLanes(row, 8); !reflect.DeepEqual(got, lanes) {
						t.Errorf("-O%d: %s = %v, want %v", level, isa.FormatAddr(a), got, lanes)
					}
				}
			}
		})
	}
}

// TestFoldKeepsLaneCheck: a multiply by zero whose other multiplicand
// is not provably narrow is not folded, so on wide data every level
// still fails the kernel's run-time lane check.
func TestFoldKeepsLaneCheck(t *testing.T) {
	cfg := testCfg(params.TRD7)
	src := "%a = load b0.s0.t1.d0.r0\n%z = li 0 bs=8\n%m = mult %z, %a bs=8\n%f = fma %a, %z, %a bs=8\n" +
		"store %m, b0.s0.t2.d0.r0\nstore %f, b0.s0.t2.d0.r1\n"
	wide := make([]uint64, cfg.Geometry.TrackWidth/8)
	for l := range wide {
		wide[l] = 0xF0 | uint64(l)
	}
	in := map[isa.Addr][]uint64{{Tile: 1}: wide}
	for _, level := range []int{0, 1, 2} {
		res, _, err := foldRun(t, cfg, src, in, 8, level)
		if !errors.Is(err, pim.ErrLaneOverflow) {
			t.Errorf("-O%d: run err = %v, want pim.ErrLaneOverflow", level, err)
		}
		if res.Stats.Requests != 2 {
			t.Errorf("-O%d: %d kernels, want the mult and the fma", level, res.Stats.Requests)
		}
	}
}

// TestFoldKeepsSurface: folding changes what the plan computes on the
// way, never what Result reports. A store whose value folds to a load
// or a constant keeps its register's name and blocksize, and Inputs
// list the source program's live loads at every level, including a
// load every use of which folded away.
func TestFoldKeepsSurface(t *testing.T) {
	cfg := testCfg(params.TRD7)
	src := `%a = load b0.s0.t1.d0.r0
%b = load b0.s0.t1.d0.r1
%c = load b0.s0.t1.d0.r2
%dead = load b0.s0.t1.d0.r3
%s = shr %b bs=16 imm=0
%z = xor %a, %a bs=8
%m = max %c, %z bs=8
%k = add %z, %z bs=8
store %s, b0.s0.t2.d0.r0
store %z, b0.s0.t2.d0.r1
store %m, b0.s0.t2.d0.r2
store %k, b0.s0.t2.d0.r3
`
	wantIn := []Output{
		{Name: "a", Addr: isa.Addr{Tile: 1}},
		{Name: "b", Addr: isa.Addr{Tile: 1, Row: 1}},
		{Name: "c", Addr: isa.Addr{Tile: 1, Row: 2}},
	}
	wantOut := []Output{
		{Name: "s", Addr: isa.Addr{Tile: 2}, Blocksize: 16},
		{Name: "z", Addr: isa.Addr{Tile: 2, Row: 1}, Blocksize: 8},
		{Name: "m", Addr: isa.Addr{Tile: 2, Row: 2}, Blocksize: 8},
		{Name: "k", Addr: isa.Addr{Tile: 2, Row: 3}, Blocksize: 8},
	}
	in := make(map[isa.Addr][]uint64)
	for i, o := range wantIn {
		lanes := make([]uint64, cfg.Geometry.TrackWidth/8)
		for l := range lanes {
			lanes[l] = uint64(37*i+11*l+5) & 0xFF
		}
		in[o.Addr] = lanes
	}
	var ref []dbc.Row
	for _, level := range []int{0, 1, 2} {
		res, m, err := foldRun(t, cfg, src, in, 8, level)
		if err != nil {
			t.Fatalf("-O%d: run: %v", level, err)
		}
		if !reflect.DeepEqual(res.Inputs, wantIn) {
			t.Errorf("-O%d: Inputs = %+v, want %+v", level, res.Inputs, wantIn)
		}
		if !reflect.DeepEqual(res.Outputs, wantOut) {
			t.Errorf("-O%d: Outputs = %+v, want %+v", level, res.Outputs, wantOut)
		}
		if level > 0 && res.Stats.Requests != 0 {
			t.Errorf("-O%d: %d kernels, want every op folded", level, res.Stats.Requests)
		}
		for i, o := range wantOut {
			row, err := m.ReadRow(o.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if level == 0 {
				ref = append(ref, row)
			} else if !row.Equal(ref[i]) {
				t.Errorf("-O%d: %%%s differs from -O0", level, o.Name)
			}
		}
	}
}
