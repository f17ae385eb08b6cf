package device

import (
	"math/rand"
	"testing"

	"repro/internal/params"
)

func randPlaneWords(wires int, rng *rand.Rand) []uint64 {
	ws := make([]uint64, (wires+63)/64)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	ws[len(ws)-1] &= tailMask(wires)
	return ws
}

// TestPlaneArrayRowRoundTrip: SetRow/RowWords/RowBit must round-trip the
// packed representation exactly, including non-word-multiple widths
// where the tail mask matters.
func TestPlaneArrayRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, wires := range []int{1, 63, 64, 65, 100, 128, 512} {
		pa, err := NewPlaneArray(wires, 32, params.TRD7)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]uint64, 32)
		for r := range want {
			want[r] = randPlaneWords(wires, rng)
			pa.SetRow(r, want[r])
		}
		got := make([]uint64, pa.Words())
		for r := range want {
			pa.RowWords(r, got)
			for i := range got {
				if got[i] != want[r][i] {
					t.Fatalf("wires=%d row %d word %d = %#x, want %#x", wires, r, i, got[i], want[r][i])
				}
			}
			for w := 0; w < wires; w++ {
				if pa.RowBit(r, w) != Bit(want[r][w>>6]>>uint(w&63))&1 {
					t.Fatalf("wires=%d row %d wire %d bit mismatch", wires, r, w)
				}
			}
		}
	}
}

// TestPlaneArrayTailInvariant: stray bits past the wire count in a
// caller's source words must never enter the planes.
func TestPlaneArrayTailInvariant(t *testing.T) {
	pa, err := NewPlaneArray(100, 32, params.TRD7)
	if err != nil {
		t.Fatal(err)
	}
	dirty := []uint64{^uint64(0), ^uint64(0)}
	pa.SetRow(3, dirty)
	got := make([]uint64, pa.Words())
	pa.RowWords(3, got)
	if got[1] != tailMask(100) {
		t.Errorf("tail word = %#x, want %#x", got[1], tailMask(100))
	}
}

// TestPlaneArrayShiftIdentity: a shift excursion followed by its inverse
// must restore every data row bit-exactly (the overhead domains absorb
// the excursion).
func TestPlaneArrayShiftIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		pa, err := NewPlaneArray(96, 32, trd)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]uint64, 32)
		for r := range want {
			want[r] = randPlaneWords(96, rng)
			pa.SetRow(r, want[r])
		}
		for k := 0; k < 7; k++ {
			if err := pa.ShiftRight(); err != nil {
				t.Fatalf("%v shift right %d: %v", trd, k, err)
			}
		}
		for k := 0; k < 7; k++ {
			if err := pa.ShiftLeft(); err != nil {
				t.Fatalf("%v shift left %d: %v", trd, k, err)
			}
		}
		got := make([]uint64, pa.Words())
		for r := range want {
			pa.RowWords(r, got)
			for i := range got {
				if got[i] != want[r][i] {
					t.Fatalf("%v: row %d changed after shift round trip", trd, r)
				}
			}
		}
	}
}

// TestPlaneArrayShiftBounds: shifting past the overhead domains must
// refuse rather than destroy data.
func TestPlaneArrayShiftBounds(t *testing.T) {
	pa, err := NewPlaneArray(8, 32, params.TRD7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewNanowire(32, params.TRD7)
	if err != nil {
		t.Fatal(err)
	}
	rights := 0
	for pa.ShiftRight() == nil {
		if ref.ShiftRight() != nil {
			t.Fatal("plane allowed a right shift the nanowire refused")
		}
		rights++
		if rights > 1000 {
			t.Fatal("right shifts never refused")
		}
	}
	if ref.ShiftRight() == nil {
		t.Fatal("plane refused a right shift the nanowire allowed")
	}
	lefts := 0
	for pa.ShiftLeft() == nil {
		if ref.ShiftLeft() != nil {
			t.Fatal("plane allowed a left shift the nanowire refused")
		}
		lefts++
		if lefts > 1000 {
			t.Fatal("left shifts never refused")
		}
	}
	if ref.ShiftLeft() == nil {
		t.Fatal("plane refused a left shift the nanowire allowed")
	}
	if rights == 0 || lefts <= rights {
		t.Errorf("excursion range implausible: rights=%d lefts=%d", rights, lefts)
	}
}

// TestPlaneArrayTRPopcount: the bit-sliced TR counters must equal a
// naive per-wire popcount of the window for every wire.
func TestPlaneArrayTRPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		for trial := 0; trial < 50; trial++ {
			wires := 1 + rng.Intn(130)
			pa, err := NewPlaneArray(wires, 32, trd)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < int(trd); i++ {
				pa.PokeWindow(i, randPlaneWords(wires, rng))
			}
			words := pa.Words()
			c0 := make([]uint64, words)
			c1 := make([]uint64, words)
			c2 := make([]uint64, words)
			pa.TRPlanes(c0, c1, c2)
			naiveTotal := 0
			for w := 0; w < wires; w++ {
				word, bit := w>>6, uint(w&63)
				level := int(c0[word]>>bit&1) | int(c1[word]>>bit&1)<<1 | int(c2[word]>>bit&1)<<2
				naive := 0
				buf := make([]uint64, words)
				for i := 0; i < int(trd); i++ {
					pa.PeekWindow(i, buf)
					naive += int(buf[word] >> bit & 1)
				}
				naiveTotal += naive
				if level != naive {
					t.Fatalf("%v wires=%d wire %d: bit-sliced level %d, naive %d", trd, wires, w, level, naive)
				}
			}
			if got := pa.WindowOnes(); got != naiveTotal {
				t.Fatalf("%v: WindowOnes %d, naive %d", trd, got, naiveTotal)
			}
		}
	}
}

// TestPlaneArrayMatchesNanowire drives a PlaneArray and one reference
// Nanowire per wire through a random operation mix and requires
// bit-identical state throughout — the packed engine must be
// indistinguishable from the single-wire device physics.
func TestPlaneArrayMatchesNanowire(t *testing.T) {
	const wires, rows = 67, 32
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		pa, err := NewPlaneArray(wires, rows, trd)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]*Nanowire, wires)
		for i := range ref {
			w, err := NewNanowire(rows, trd)
			if err != nil {
				t.Fatal(err)
			}
			ref[i] = w
		}
		rng := rand.New(rand.NewSource(304 + int64(trd)))
		words := pa.Words()
		buf := make([]uint64, words)
		c0, c1, c2 := make([]uint64, words), make([]uint64, words), make([]uint64, words)
		for step := 0; step < 500; step++ {
			switch rng.Intn(7) {
			case 0: // row store
				r := rng.Intn(rows)
				src := randPlaneWords(wires, rng)
				pa.SetRow(r, src)
				for i, w := range ref {
					w.SetRow(r, Bit(src[i>>6]>>uint(i&63))&1)
				}
			case 1: // shift
				var errP, errR error
				if rng.Intn(2) == 0 {
					errP = pa.ShiftRight()
					for _, w := range ref {
						errR = w.ShiftRight()
					}
				} else {
					errP = pa.ShiftLeft()
					for _, w := range ref {
						errR = w.ShiftLeft()
					}
				}
				if (errP == nil) != (errR == nil) {
					t.Fatalf("%v step %d: shift legality diverged", trd, step)
				}
			case 2: // port write
				side := Side(rng.Intn(2))
				src := randPlaneWords(wires, rng)
				pa.WritePort(side, src)
				for i, w := range ref {
					w.WritePort(side, Bit(src[i>>6]>>uint(i&63))&1)
				}
			case 3: // port read
				side := Side(rng.Intn(2))
				pa.ReadPort(side, buf)
				for i, w := range ref {
					if Bit(buf[i>>6]>>uint(i&63))&1 != w.ReadPort(side) {
						t.Fatalf("%v step %d: ReadPort diverged on wire %d", trd, step, i)
					}
				}
			case 4: // transverse read
				pa.TRPlanes(c0, c1, c2)
				for i, w := range ref {
					word, bit := i>>6, uint(i&63)
					level := int(c0[word]>>bit&1) | int(c1[word]>>bit&1)<<1 | int(c2[word]>>bit&1)<<2
					if level != w.TR() {
						t.Fatalf("%v step %d: TR diverged on wire %d", trd, step, i)
					}
				}
			case 5: // transverse write
				src := randPlaneWords(wires, rng)
				pa.TW(src)
				for i, w := range ref {
					w.TW(Bit(src[i>>6]>>uint(i&63)) & 1)
				}
			case 6: // full snapshot comparison
				if pa.Offset() != ref[0].Offset() {
					t.Fatalf("%v step %d: offset %d vs %d", trd, step, pa.Offset(), ref[0].Offset())
				}
				for i, w := range ref {
					snap := pa.WireSnapshot(i)
					want := w.Snapshot()
					for r := range snap {
						if snap[r] != want[r] {
							t.Fatalf("%v step %d: row %d wire %d diverged", trd, step, r, i)
						}
					}
				}
			}
		}
	}
}

// TestPerturbTRPlanesMatchesScalar: the word-masked fault perturbation
// must be exactly the bit-sliced form of the scalar PerturbTR clamp.
func TestPerturbTRPlanesMatchesScalar(t *testing.T) {
	for _, trd := range []int{3, 5, 7} {
		for seed := int64(0); seed < 40; seed++ {
			const wires = 70
			inj := NewFaultInjector(0.5, 0, seed)
			flip, up, any := inj.TRFaultMasks(wires)
			if !any {
				continue
			}
			rng := rand.New(rand.NewSource(seed * 31))
			words := (wires + 63) / 64
			c0 := make([]uint64, words)
			c1 := make([]uint64, words)
			c2 := make([]uint64, words)
			levels := make([]int, wires)
			for w := range levels {
				levels[w] = rng.Intn(trd + 1)
				c0[w>>6] |= uint64(levels[w]&1) << uint(w&63)
				c1[w>>6] |= uint64(levels[w]>>1&1) << uint(w&63)
				c2[w>>6] |= uint64(levels[w]>>2&1) << uint(w&63)
			}
			PerturbTRPlanes(c0, c1, c2, flip, up, trd)
			for w := range levels {
				want := levels[w]
				if flip[w>>6]>>uint(w&63)&1 != 0 {
					if up[w>>6]>>uint(w&63)&1 != 0 {
						if want < trd {
							want++
						}
					} else if want > 0 {
						want--
					}
				}
				word, bit := w>>6, uint(w&63)
				got := int(c0[word]>>bit&1) | int(c1[word]>>bit&1)<<1 | int(c2[word]>>bit&1)<<2
				if got != want {
					t.Fatalf("trd=%d seed=%d wire %d: perturbed level %d, want %d (orig %d)", trd, seed, w, got, want, levels[w])
				}
			}
		}
	}
}
