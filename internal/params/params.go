// Package params holds the device, circuit, timing, energy, and geometry
// constants used throughout the CORUSCANT simulator.
//
// The constants fall into two groups:
//
//   - Published values quoted directly from the paper (Table II system
//     parameters, Xeon X5670 energy figures, DDR3-1600 timings).
//   - Calibrated component values (per-primitive energies and areas)
//     chosen so that the anchor operations of Table III — the 8-bit
//     add and multiply costs — land on the published numbers. Each
//     calibrated constant documents its anchor.
package params

import (
	"errors"
	"fmt"
)

// ErrBadTRD reports a transverse-read-distance violation: an unsupported
// TRD value, or an operation that does not fit the TR window the TRD
// defines (too many operands, an invalid redundancy degree). Wrapped by
// the validation errors of this package, pim and isa; test with
// errors.Is.
var ErrBadTRD = errors.New("params: invalid TRD or TR-window constraint")

// TRD is a transverse-read distance: the maximum number of domains that a
// single transverse read can sense between two access ports (inclusive of
// the domains under both ports). The paper evaluates TRD ∈ {3, 5, 7}.
type TRD int

// Supported transverse read distances.
const (
	TRD3 TRD = 3
	TRD5 TRD = 5
	TRD7 TRD = 7
)

// Valid reports whether t is one of the TRDs supported by the sensing
// circuit (odd values from 3 to 7, per the paper's sensitivity study).
func (t TRD) Valid() bool { return t == TRD3 || t == TRD5 || t == TRD7 }

func (t TRD) String() string { return fmt.Sprintf("TRD=%d", int(t)) }

// MaxAddOperands returns the largest number of operands a single
// multi-operand addition can take: two window slots are reserved for the
// incoming carry C and super-carry C' (only one slot for TRD=3, which has
// no super-carry because a count of at most 3 fits in two bits).
func (t TRD) MaxAddOperands() int {
	if t == TRD3 {
		return 1 + 1 // one operand slot + carry; add is 2-operand via chain slot reuse
	}
	return int(t) - 2
}

// MaxBulkOperands returns the largest number of operands for a bulk
// bitwise operation, which uses the full window.
func (t TRD) MaxBulkOperands() int { return int(t) }

// HasSuperCarry reports whether the TR level range is wide enough to
// produce the super-carry C' (needs counts ≥ 4, i.e. three count bits).
func (t TRD) HasSuperCarry() bool { return t >= 4 }

// ValidNMR reports whether n is a modular-redundancy degree the window
// can vote: the paper supports N ∈ {3, 5, 7} with N ≤ TRD (§III-F).
func (t TRD) ValidNMR(n int) bool {
	return (n == 3 || n == 5 || n == 7) && n <= int(t)
}

// Geometry describes the CORUSCANT main-memory organization (Table II)
// and the DBC internal layout (Fig. 2(d)).
type Geometry struct {
	Banks            int // banks in the memory (Table II: 32)
	SubarraysPerBank int // subarrays per bank (Table II: 64)
	TilesPerSubarray int // tiles per subarray (Table II: 16)
	DBCsPerTile      int // DBCs per tile (Table II: 15 + 1 PIM)
	PIMDBCsPerTile   int // PIM-enabled DBCs per tile (Table II: 1)
	PIMTilesPerSub   int // tiles per subarray with PIM DBCs (§III-B: 1)

	TrackWidth int // X: nanowires per DBC = bits per row (512)
	RowsPerDBC int // Y: data domains per nanowire = row addresses (32)
}

// DefaultGeometry returns the Table II configuration: a 1 GB memory of
// 32 banks × 64 subarrays × 16 tiles × 16 DBCs × (512 × 32) bits.
func DefaultGeometry() Geometry {
	return Geometry{
		Banks:            32,
		SubarraysPerBank: 64,
		TilesPerSubarray: 16,
		DBCsPerTile:      16,
		PIMDBCsPerTile:   1,
		PIMTilesPerSub:   1,
		TrackWidth:       512,
		RowsPerDBC:       32,
	}
}

// TotalBytes returns the memory capacity implied by the geometry.
func (g Geometry) TotalBytes() int64 {
	bitsPerDBC := int64(g.TrackWidth) * int64(g.RowsPerDBC)
	return int64(g.Banks) * int64(g.SubarraysPerBank) * int64(g.TilesPerSubarray) *
		int64(g.DBCsPerTile) * bitsPerDBC / 8
}

// PIMDBCs returns the number of concurrently dispatchable PIM DBCs in
// high-throughput mode: one per subarray, since a subarray's PIM DBCs
// share the local sensing circuitry and row buffer (Fig. 2(c)).
func (g Geometry) PIMDBCs() int {
	return g.Banks * g.SubarraysPerBank * g.PIMTilesPerSub * g.PIMDBCsPerTile
}

// TotalPIMDBCs returns every PIM-enabled DBC in the memory (Table II:
// one of each tile's 16 DBCs), the peak-throughput parallelism used by
// the §V-E TOPS figure.
func (g Geometry) TotalPIMDBCs() int {
	return g.Banks * g.SubarraysPerBank * g.TilesPerSubarray * g.PIMDBCsPerTile
}

// PortPlacement returns the 0-indexed data-row positions of the left and
// right access ports for a nanowire with rows data rows and a window of
// trd domains. The ports are centred (§III-A: for Y=32 and TRD=7 the
// ports sit at 1-indexed positions 14 and 20, i.e. 0-indexed 13 and 19).
func PortPlacement(rows int, trd TRD) (left, right int) {
	left = (rows - int(trd) + 1) / 2
	right = left + int(trd) - 1
	return left, right
}

// OverheadDomains returns the number of extra (non-data) domains a
// nanowire needs so that every data row can reach its nearest port
// without data falling off an extremity. For Y=32, TRD=7 this is 25,
// matching §III-A ("the overhead domains would only reduce from 31 to 25").
func OverheadDomains(rows int, trd TRD) int {
	left, right := PortPlacement(rows, trd)
	// Rows left of the window align to the left port (max shift = left);
	// rows right of it align to the right port (max shift = rows-1-right).
	return left + (rows - 1 - right)
}

// Timing holds cycle-domain timing constants.
type Timing struct {
	DeviceCycleNS float64 // nanowire/DBC op cycle, §V-B: 1 ns
	MemCycleNS    float64 // DDR bus cycle, Table II: 1.25 ns
	BusMHz        int     // Table II: 1000 MHz

	// DDR command timings in memory cycles (Table II).
	// DRAM: tRAS-tRCD-tRP-tCAS-tWR = 20-8-8-8-8.
	// DWM replaces precharge with shifting: 9-4-S-4-4.
	DRAM DDRTimings
	DWM  DDRTimings
}

// DDRTimings is a DDR3-style command timing tuple, in memory cycles.
// For DWM, TRP is zero and shift cycles are charged per DW shift instead
// (spintronic cells need no precharge; see §V-C).
type DDRTimings struct {
	TRAS, TRCD, TRP, TCAS, TWR int
	ShiftPerStep               int // DWM only: cycles per single-domain shift ("S")
}

// RowCycleRead returns the cycles to activate+read+restore one row,
// given an additional shift distance (DWM) in steps.
func (t DDRTimings) RowCycleRead(shiftSteps int) int {
	return t.TRCD + t.TCAS + t.TRP + shiftSteps*t.ShiftPerStep
}

// RowCycleWrite returns the cycles to activate+write one row.
func (t DDRTimings) RowCycleWrite(shiftSteps int) int {
	return t.TRCD + t.TWR + t.TRP + shiftSteps*t.ShiftPerStep
}

// DefaultTiming returns the Table II timing configuration.
func DefaultTiming() Timing {
	return Timing{
		DeviceCycleNS: 1.0,
		MemCycleNS:    1.25,
		BusMHz:        1000,
		DRAM:          DDRTimings{TRAS: 20, TRCD: 8, TRP: 8, TCAS: 8, TWR: 8},
		DWM:           DDRTimings{TRAS: 9, TRCD: 4, TRP: 0, TCAS: 4, TWR: 4, ShiftPerStep: 1},
	}
}

// Energy holds per-primitive energies in picojoules. The component values
// are calibrated so the Table III anchors reproduce:
//
//	8-bit 2-op add, TRD=3:  8·TR3 + 18·W + 2·Sh ≈ 10.15 pJ
//	8-bit 5-op add, TRD=7:  8·TR7 + 29·W + 5·Sh ≈ 22.14 pJ
//
// with Write/Shift at the paper's published ~0.1 pJ device values (§I).
type Energy struct {
	WritePJ float64 // per-bit access-port write (§I: circa 0.1 pJ)
	ReadPJ  float64 // per-bit access-port read
	ShiftPJ float64 // per nanowire per single-domain shift
	TWPJ    float64 // transverse write (write + segmented shift in one op)

	// TRPJ[t] is the energy of one transverse read over a window of t
	// domains, including the multi-level sense amplifier and the PIM
	// logic block evaluation. Calibrated anchors: Table III.
	TR3PJ float64
	TR5PJ float64
	TR7PJ float64

	// CPU-side constants (Table II / [3]).
	CPUAdd32PJ   float64 // 111 pJ per 32-bit add
	CPUMult32PJ  float64 // 164 pJ per 32-bit multiply
	TransPJPerB  float64 // 1250 pJ per byte moved over the memory bus
	DRAMRowActPJ float64 // DRAM row activation (for Ambit/ELP2IM models)
}

// DefaultEnergy returns the calibrated energy table.
func DefaultEnergy() Energy {
	return Energy{
		WritePJ: 0.1,
		ReadPJ:  0.08,
		ShiftPJ: 0.1,
		TWPJ:    0.14, // write plus a one-window segmented shift
		// Solving the Table III anchors against the traced primitive
		// counts of the 8-bit adds (TRD=7 five-operand: 40 shift-wire
		// events, 61 written bits, 8 TRs; TRD=3 two-operand: 8 shift
		// wires, 31 written bits, 8 TRs) with W=Sh=0.1 pJ:
		//   TR7: (22.14 − 4.0 − 6.1)/8 = 1.505
		//   TR3: (10.15 − 0.8 − 3.1)/8 = 0.781
		// TR5 interpolated linearly on window length.
		TR3PJ:        0.781,
		TR5PJ:        1.143,
		TR7PJ:        1.505,
		CPUAdd32PJ:   111,
		CPUMult32PJ:  164,
		TransPJPerB:  1250,
		DRAMRowActPJ: 909, // per-row activation energy used by the DRAM PIM models
	}
}

// TRPJ returns the transverse-read energy for the given window length.
func (e Energy) TRPJ(t TRD) float64 {
	switch t {
	case TRD3:
		return e.TR3PJ
	case TRD5:
		return e.TR5PJ
	default:
		return e.TR7PJ
	}
}

// Config bundles the full parameter set for a CORUSCANT instance.
type Config struct {
	TRD      TRD
	Geometry Geometry
	Timing   Timing
	Energy   Energy

	// TRFaultProb is the probability that a single transverse read
	// returns a level off by one (§V-F: circa 1e-6 for 4 domains).
	// Zero disables fault injection.
	TRFaultProb float64
	// ShiftFaultProb is the probability of an over/under-shift per
	// shift step. The paper assumes orthogonal fault tolerance makes
	// this negligible; it is exposed for the reliability experiments.
	ShiftFaultProb float64
}

// DefaultConfig returns the paper's primary configuration (TRD=7,
// Table II geometry, calibrated energies, no fault injection).
func DefaultConfig() Config {
	return Config{
		TRD:      TRD7,
		Geometry: DefaultGeometry(),
		Timing:   DefaultTiming(),
		Energy:   DefaultEnergy(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.TRD.Valid() {
		return fmt.Errorf("params: unsupported TRD %d (want 3, 5, or 7): %w", int(c.TRD), ErrBadTRD)
	}
	g := c.Geometry
	if g.TrackWidth <= 0 || g.RowsPerDBC <= 0 {
		return fmt.Errorf("params: non-positive DBC dimensions %dx%d", g.TrackWidth, g.RowsPerDBC)
	}
	if g.RowsPerDBC < int(c.TRD) {
		return fmt.Errorf("params: DBC rows %d smaller than TRD %d: %w", g.RowsPerDBC, int(c.TRD), ErrBadTRD)
	}
	if c.TRFaultProb < 0 || c.TRFaultProb > 1 {
		return fmt.Errorf("params: TR fault probability %v out of [0,1]", c.TRFaultProb)
	}
	if c.ShiftFaultProb < 0 || c.ShiftFaultProb > 1 {
		return fmt.Errorf("params: shift fault probability %v out of [0,1]", c.ShiftFaultProb)
	}
	return nil
}

// BlockSizes are the word widths supported by the cpim instruction's
// blocksize field (§III-E).
var BlockSizes = []int{8, 16, 32, 64, 128, 256, 512}

// ValidBlockSize reports whether b is a legal cpim blocksize.
func ValidBlockSize(b int) bool {
	for _, v := range BlockSizes {
		if v == b {
			return true
		}
	}
	return false
}
