package cnn

import (
	"math/rand"
	"testing"

	"repro/internal/params"
	"repro/internal/pim"
)

func TestNetworkShapes(t *testing.T) {
	alex, lenet := AlexNet(), LeNet5()
	// AlexNet is ~724M MACs, LeNet-5 ~416k (standard figures ±5%).
	if m := alex.MACs(); m < 650e6 || m > 800e6 {
		t.Errorf("AlexNet MACs = %d, want ≈724M", m)
	}
	if m := lenet.MACs(); m < 380e3 || m > 450e3 {
		t.Errorf("LeNet-5 MACs = %d, want ≈416k", m)
	}
	if alex.Adds() >= alex.MACs() {
		t.Error("Eq. 2 additions must be below MACs (m−1 per output)")
	}
	for _, n := range []Network{alex, lenet} {
		for _, l := range n.Layers {
			if l.Kind != Pool && l.MACs() == 0 {
				t.Errorf("%s/%s: zero MACs", n.Name, l.Name)
			}
			if l.Outputs() <= 0 {
				t.Errorf("%s/%s: no outputs", n.Name, l.Name)
			}
		}
	}
}

func TestEq2AdditionCounts(t *testing.T) {
	// §IV-A: "The first reduction step of Alexnet requires 362
	// additions" per output — conv1 has K²·Ic = 363 products, 362 adds.
	conv1 := AlexNet().Layers[0]
	if got := conv1.ReductionFanIn(); got != 363 {
		t.Errorf("conv1 fan-in = %d, want 363", got)
	}
	if got := conv1.Adds() / conv1.Outputs(); got != 362 {
		t.Errorf("conv1 adds per output = %d, want 362", got)
	}
}

func findFPS(t *testing.T, cells []Cell, backend string, p Precision, net string) float64 {
	t.Helper()
	c, err := Find(cells, backend, p, net)
	if err != nil {
		t.Fatal(err)
	}
	return c.FPS
}

func TestTable4AnchorsReproduce(t *testing.T) {
	cells, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		backend string
		p       Precision
		net     string
		fps     float64
	}{
		{"SPIM", Full, "Alexnet", 32.1},
		{"SPIM", Full, "Lenet5", 59},
		{"Ambit", BWN, "Alexnet", 227},
		{"Ambit", BWN, "Lenet5", 7525},
		{"CORUSCANT-3", TWN, "Alexnet", 358},
		{"CORUSCANT-3", TWN, "Lenet5", 22172},
		{"ISAAC", Full, "Alexnet", 34},
		{"ISAAC", Full, "Lenet5", 2581},
	} {
		got := findFPS(t, cells, a.backend, a.p, a.net)
		if got < a.fps*0.98 || got > a.fps*1.02 {
			t.Errorf("%s/%v/%s = %.1f FPS, want anchor %.1f", a.backend, a.p, a.net, got, a.fps)
		}
	}
}

func TestTable4DerivedShape(t *testing.T) {
	cells, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Headline claim: CORUSCANT-7 beats SPIM by 2.8× on full precision
	// (Table IV speedup column); accept the band [2.4, 3.4].
	for _, net := range []string{"Alexnet", "Lenet5"} {
		s := findFPS(t, cells, "CORUSCANT-7", Full, net) / findFPS(t, cells, "SPIM", Full, net)
		if s < 2.4 || s > 3.4 {
			t.Errorf("%s: C7/SPIM full-precision speedup %.2f, want ≈2.8", net, s)
		}
		// TRD monotonicity (§V-E).
		c3 := findFPS(t, cells, "CORUSCANT-3", Full, net)
		c5 := findFPS(t, cells, "CORUSCANT-5", Full, net)
		c7 := findFPS(t, cells, "CORUSCANT-7", Full, net)
		if !(c3 < c5 && c5 < c7) {
			t.Errorf("%s: full-precision FPS not monotone in TRD: %v %v %v", net, c3, c5, c7)
		}
	}
	// Ternary: CORUSCANT-3 beats ELP2IM TWN by ≈3.7× on AlexNet.
	s := findFPS(t, cells, "CORUSCANT-3", TWN, "Alexnet") / findFPS(t, cells, "ELP2IM", TWN, "Alexnet")
	if s < 3.0 || s > 4.4 {
		t.Errorf("C3/ELP2IM ternary speedup %.2f, want ≈3.7", s)
	}
	// ELP2IM must beat Ambit everywhere (its 3.2× bulk advantage).
	for _, net := range []string{"Alexnet", "Lenet5"} {
		for _, p := range []Precision{BWN, TWN} {
			if findFPS(t, cells, "ELP2IM", p, net) <= findFPS(t, cells, "Ambit", p, net) {
				t.Errorf("%s/%v: ELP2IM not faster than Ambit", net, p)
			}
		}
	}
	// BWN is faster than TWN for the DRAM backends (simpler binary mode).
	if findFPS(t, cells, "Ambit", BWN, "Alexnet") <= findFPS(t, cells, "Ambit", TWN, "Alexnet") {
		t.Error("Ambit BWN not faster than TWN")
	}
	// ISAAC: an order of magnitude ahead on LeNet-5, but CORUSCANT full
	// precision beats it on AlexNet (§V-E).
	if findFPS(t, cells, "ISAAC", Full, "Lenet5") < 5*findFPS(t, cells, "CORUSCANT-7", Full, "Lenet5") {
		t.Error("ISAAC should dominate LeNet-5 full precision")
	}
	if findFPS(t, cells, "CORUSCANT-7", Full, "Alexnet") < findFPS(t, cells, "ISAAC", Full, "Alexnet") {
		t.Error("CORUSCANT-7 should edge out ISAAC on AlexNet")
	}
}

func TestTable4TRDSensitivityBands(t *testing.T) {
	// §V-E: "increasing the TRD from 3→5 increases CORUSCANT
	// performance 30-40%, and increasing from 5→7 increases performance
	// by another 10-20%" (ternary mode, AlexNet).
	cells, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	c3 := findFPS(t, cells, "CORUSCANT-3", TWN, "Alexnet")
	c5 := findFPS(t, cells, "CORUSCANT-5", TWN, "Alexnet")
	c7 := findFPS(t, cells, "CORUSCANT-7", TWN, "Alexnet")
	if g := c5/c3 - 1; g < 0.20 || g > 0.45 {
		t.Errorf("TRD 3→5 gain %.0f%%, want 30-40%%", g*100)
	}
	if g := c7/c5 - 1; g < 0.05 || g > 0.25 {
		t.Errorf("TRD 5→7 gain %.0f%%, want 10-20%%", g*100)
	}
}

func TestTable6NMR(t *testing.T) {
	cells, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// TMR costs slightly more than 3×; N=5/7 scale accordingly; voting
	// on TRD=3 is markedly more expensive (§III-F).
	for _, net := range []string{"Alexnet", "Lenet5"} {
		fp7 := findFPS(t, base, "CORUSCANT-7", Full, net)
		tmr, err := FindNMR(cells, params.TRD7, 3, Full, net)
		if err != nil {
			t.Fatal(err)
		}
		if r := fp7 / tmr.FPS; r < 3.0 || r > 3.6 {
			t.Errorf("%s: TMR slowdown %.2f, want slightly above 3", net, r)
		}
		n7, err := FindNMR(cells, params.TRD7, 7, Full, net)
		if err != nil {
			t.Fatal(err)
		}
		if r := fp7 / n7.FPS; r < 7.0 || r > 8.0 {
			t.Errorf("%s: 7MR slowdown %.2f, want slightly above 7", net, r)
		}
		tmr3, err := FindNMR(cells, params.TRD3, 3, Full, net)
		if err != nil {
			t.Fatal(err)
		}
		fp3 := findFPS(t, base, "CORUSCANT-3", Full, net)
		if r := fp3 / tmr3.FPS; r < 3.6 {
			t.Errorf("%s: TRD=3 TMR slowdown %.2f, want ≈4 (multi-step voting)", net, r)
		}
	}
	// Paper's ISO-area headline: CORUSCANT-7 ternary with TMR is still
	// faster than Ambit and ELP2IM without fault tolerance (×1.83/×1.62).
	tmr, err := FindNMR(cells, params.TRD7, 3, TWN, "Alexnet")
	if err != nil {
		t.Fatal(err)
	}
	ambitFPS := findFPS(t, base, "Ambit", TWN, "Alexnet")
	elpFPS := findFPS(t, base, "ELP2IM", TWN, "Alexnet")
	if tmr.FPS <= ambitFPS || tmr.FPS <= elpFPS {
		t.Errorf("TMR CORUSCANT-7 (%.0f FPS) must beat unprotected Ambit (%.0f) and ELP2IM (%.0f)",
			tmr.FPS, ambitFPS, elpFPS)
	}
	// No NMR degree above the TRD.
	for _, c := range cells {
		if c.N > int(c.TRD) {
			t.Errorf("cell with N=%d on TRD=%d", c.N, int(c.TRD))
		}
	}
}

// tinyCNN is the 3×3 convolution + ReLU + 2×2 max-pool network with
// one input and one output channel, as a Sequential.
func tinyCNN(k [3][3]int) *Sequential {
	return &Sequential{Layers: []PIMLayer{
		&ConvLayer{W: [][][3][3]int{{k}}, B: []int{0}},
		PoolLayer{},
	}}
}

func TestFunctionalTinyCNNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := params.DefaultConfig()
		cfg.TRD = trd
		cfg.Geometry.TrackWidth = 256 // 16 lanes of 16 bits
		u := pim.MustNewUnit(cfg)
		net := tinyCNN([3][3]int{{1, -2, 1}, {2, 4, -1}, {-3, 1, 2}})
		img := NewTensor3(1, 6, 6)
		for y := range img[0] {
			for x := range img[0][y] {
				img[0][y][x] = rng.Intn(16)
			}
		}
		want := net.ForwardRef(img)
		got, err := net.Forward(u, img)
		if err != nil {
			t.Fatalf("%v: %v", trd, err)
		}
		for y := range want[0] {
			for x := range want[0][y] {
				if got[0][y][x] != want[0][y][x] {
					t.Errorf("%v: out[%d][%d] = %d, want %d", trd, y, x, got[0][y][x], want[0][y][x])
				}
			}
		}
	}
}

func TestFunctionalTinyCNNAllZeroKernel(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 128
	u := pim.MustNewUnit(cfg)
	net := tinyCNN([3][3]int{}) // zero kernel: every output zero
	img := Tensor3{{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 1, 2, 3}, {4, 5, 6, 7}}}
	got, err := net.Forward(u, img)
	if err != nil {
		t.Fatal(err)
	}
	for y := range got[0] {
		for x := range got[0][y] {
			if got[0][y][x] != 0 {
				t.Errorf("out[%d][%d] = %d, want 0", y, x, got[0][y][x])
			}
		}
	}
}
