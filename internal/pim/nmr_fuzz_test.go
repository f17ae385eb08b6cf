package pim

import (
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
)

// FuzzAddMultiNMR holds the per-step voted add to the plain carry chain
// at zero faults. It draws the TRD (3, 5 or 7), a redundancy degree the
// window can vote, the operand count, a blocksize from 8 to 64, a width
// of one to three words (130 leaves a partial tail and lane) and the
// operand bits. AddMultiNMR's sum must equal AddMulti's, and its trace
// must be AddMulti's with the TR steps and TR wires multiplied by n and
// one more logic step (the vote) per bit position.
func FuzzAddMultiNMR(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(3), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(1), uint8(1), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), int64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(2), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, trdSel, nSel, kSel, bsSel, widthSel uint8, seed int64) {
		trd := []params.TRD{params.TRD3, params.TRD5, params.TRD7}[trdSel%3]
		var ns []int
		for _, n := range []int{3, 5, 7} {
			if trd.ValidNMR(n) {
				ns = append(ns, n)
			}
		}
		n := ns[int(nSel)%len(ns)]
		k := 2 + int(kSel)%(trd.MaxAddOperands()-1)
		bs := 8 << (bsSel % 4)
		width := []int{64, 130, 192}[widthSel%3]
		rng := rand.New(rand.NewSource(seed))
		rows := make([]dbc.Row, k)
		for i := range rows {
			rows[i] = dbc.NewRow(width)
			for w := range rows[i].Words {
				rows[i].Words[w] = rng.Uint64()
			}
			rows[i].MaskTail()
		}
		plain, voted := unitFor(t, trd, width), unitFor(t, trd, width)
		want, err := plain.AddMulti(rows, bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := voted.AddMultiNMR(n, rows, bs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v n=%d k=%d bs=%d width=%d: voted sum %v, plain %v", trd, n, k, bs, width, got, want)
		}
		ws := plain.Stats()
		ws.TRSteps *= n
		ws.TRWires *= n
		ws.LogicSteps += bs
		if gs := voted.Stats(); gs != ws {
			t.Fatalf("%v n=%d k=%d bs=%d width=%d: voted trace %+v, want %+v", trd, n, k, bs, width, gs, ws)
		}
	})
}
