package pim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/telemetry"
)

var updateFaultStream = flag.Bool("update", false, "rewrite testdata/faultstream.golden from this run")

// TestFaultStreamPinned pins, bit for bit, what the per-step voted add
// and the two TW-tournament max kernels do under injected TR and shift
// faults: for every call, the result words or the error, the call's
// trace.Stats, the faults the recorder saw and the head offset it left.
// Every configuration runs several calls back to back on one unit, so
// each call starts from the head position and the fault stream the
// previous one left behind. A change to how these kernels sense, vote
// or move the head shows up here even when the fault-free results stay
// exact. Rewrite the table with -update only for a deliberate change of
// the fault model.
func TestFaultStreamPinned(t *testing.T) {
	got := faultStreamTable()
	path := filepath.Join("testdata", "faultstream.golden")
	if *updateFaultStream {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("fault stream diverges at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("fault stream has %d lines, want %d", len(gl), len(wl))
	}
}

// faultStreamKernel is one kernel configuration of the pinned table: k
// operands per call (0: vary the operand count over the call index).
type faultStreamKernel struct {
	name string
	k    int
	run  func(u *Unit, rows []dbc.Row, bs int) (dbc.Row, error)
}

func faultStreamKernels(trd params.TRD) []faultStreamKernel {
	var ks []faultStreamKernel
	for _, n := range []int{3, 5, 7} {
		if !trd.ValidNMR(n) {
			continue
		}
		n := n
		ks = append(ks, faultStreamKernel{fmt.Sprintf("add-nmr n=%d", n), 0,
			func(u *Unit, rows []dbc.Row, bs int) (dbc.Row, error) { return u.AddMultiNMR(n, rows, bs) }})
	}
	for _, k := range []int{2, int(trd)} {
		ks = append(ks,
			faultStreamKernel{"max-tr", k, (*Unit).MaxTR},
			faultStreamKernel{"max-fullshift", k, (*Unit).MaxTRFullShift})
	}
	return ks
}

// faultStreamTable renders the pinned table: TRD 3/5/7, blocksizes 8
// and 16 on a 130-wire unit (three words, a partial tail and, at bs 16,
// a partial last lane), TR faults at 5% and shift faults at 1.25%, four
// calls per unit on random rows.
func faultStreamTable() string {
	const width, calls = 130, 4
	var sb strings.Builder
	seed := int64(0)
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for _, bs := range []int{8, 16} {
			for _, kern := range faultStreamKernels(trd) {
				seed++
				cfg := testConfig(trd, width)
				u := MustNewUnit(cfg)
				rec := telemetry.NewRecorder(cfg)
				u.SetTelemetry(rec, "pin")
				u.D.SetFaultInjector(device.NewFaultInjector(0.05, 0.0125, seed))
				rng := rand.New(rand.NewSource(seed))
				for call := 0; call < calls; call++ {
					k := kern.k
					if k == 0 {
						k = 2 + call%(trd.MaxAddOperands()-1)
					}
					rows := make([]dbc.Row, k)
					for i := range rows {
						rows[i] = dbc.NewRow(width)
						for w := range rows[i].Words {
							rows[i].Words[w] = rng.Uint64()
						}
						rows[i].MaskTail()
					}
					u.ResetStats()
					faults := rec.Metrics().Count(telemetry.OpFault)
					res, err := kern.run(u, rows, bs)
					fmt.Fprintf(&sb, "%v bs=%d %s call=%d k=%d: ", trd, bs, kern.name, call, k)
					if err != nil {
						fmt.Fprintf(&sb, "err=%q", err)
					} else {
						fmt.Fprintf(&sb, "res=%016x", res.Words)
					}
					fmt.Fprintf(&sb, " stats=%+v faults=%d offset=%d\n",
						u.Stats(), rec.Metrics().Count(telemetry.OpFault)-faults, u.D.Offset())
				}
			}
		}
	}
	return sb.String()
}
