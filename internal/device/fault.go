package device

import (
	"math/bits"
	"math/rand"
)

// OnesCount returns the number of set bits across the mask words — the
// wire count of a word-packed selection or fault mask, used by the
// telemetry layer to size fault events.
func OnesCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// FaultInjector perturbs device operations according to the paper's
// fault models (§V-F): a transverse read returns a level off by one with
// probability TRProb (faults off by two or more levels are negligible),
// and a shift over- or under-shoots by one position with probability
// ShiftProb. A nil *FaultInjector injects nothing.
type FaultInjector struct {
	TRProb    float64
	ShiftProb float64
	rng       *rand.Rand
}

// NewFaultInjector returns an injector with a deterministic source.
func NewFaultInjector(trProb, shiftProb float64, seed int64) *FaultInjector {
	return &FaultInjector{TRProb: trProb, ShiftProb: shiftProb, rng: rand.New(rand.NewSource(seed))}
}

// PerturbTR returns the sensed level for a true level in [0, max]. With
// probability TRProb the level moves one step up or down (clamped to the
// valid range, since the sense circuit cannot report out-of-range levels).
func (f *FaultInjector) PerturbTR(level, max int) int {
	if f == nil || f.TRProb == 0 || f.rng.Float64() >= f.TRProb {
		return level
	}
	if f.rng.Intn(2) == 0 {
		level--
	} else {
		level++
	}
	if level < 0 {
		level = 0
	}
	if level > max {
		level = max
	}
	return level
}

// TRFaultMasks returns word-packed fault masks for one lockstepped
// transverse read of n wires: bit w of flip is set when wire w's sensed
// level is perturbed, and the matching bit of up selects the direction
// (+1 when set, -1 otherwise). any is false — and both masks nil — when
// no wire faulted. The random draws happen wire by wire in wire order,
// exactly as one PerturbTR per wire 0..n−1 would draw them, so a
// whole-DBC read consumes the stream a masked read of every wire would,
// and fixed-seed experiments reproduce the same fault pattern on the
// packed and the reference engine alike.
func (f *FaultInjector) TRFaultMasks(n int) (flip, up []uint64, any bool) {
	if f == nil || f.TRProb == 0 {
		return nil, nil, false
	}
	words := (n + 63) / 64
	flip = make([]uint64, words)
	up = make([]uint64, words)
	for w := 0; w < n; w++ {
		if f.rng.Float64() >= f.TRProb {
			continue
		}
		any = true
		flip[w>>6] |= 1 << uint(w&63)
		if f.rng.Intn(2) != 0 {
			up[w>>6] |= 1 << uint(w&63)
		}
	}
	if !any {
		return nil, nil, false
	}
	return flip, up, true
}

// PerturbTRPlanes applies the word-masked TR fault model to bit-sliced
// level planes: on lanes selected by flip the 3-bit level c2c1c0 moves
// one step up or down per the up mask, clamped to [0, max] exactly like
// the scalar PerturbTR (the sense circuit cannot report out-of-range
// levels). All 64 lanes of a word are perturbed with a handful of
// bitwise operations.
func PerturbTRPlanes(c0, c1, c2, flip, up []uint64, max int) {
	var m0, m1, m2 uint64
	if max&1 != 0 {
		m0 = ^uint64(0)
	}
	if max&2 != 0 {
		m1 = ^uint64(0)
	}
	if max&4 != 0 {
		m2 = ^uint64(0)
	}
	for i := range c0 {
		fl := flip[i]
		if fl == 0 {
			continue
		}
		atMax := ^(c0[i] ^ m0) & ^(c1[i] ^ m1) & ^(c2[i] ^ m2)
		atZero := ^(c0[i] | c1[i] | c2[i])
		inc := fl & up[i] &^ atMax
		dec := fl &^ up[i] &^ atZero
		// Bit-sliced +1 on inc lanes (no overflow: max ≤ 7 and lanes at
		// max are excluded).
		carry := inc
		t := c0[i] & carry
		c0[i] ^= carry
		carry = t
		t = c1[i] & carry
		c1[i] ^= carry
		c2[i] ^= t
		// Bit-sliced -1 on dec lanes (disjoint from inc lanes).
		borrow := dec
		t = ^c0[i] & borrow
		c0[i] ^= borrow
		borrow = t
		t = ^c1[i] & borrow
		c1[i] ^= borrow
		c2[i] ^= t
	}
}

// ShiftError returns the signed shift-step error to add to one shift
// operation: -1 (under-shift), +1 (over-shift), or 0.
func (f *FaultInjector) ShiftError() int {
	if f == nil || f.ShiftProb == 0 || f.rng.Float64() >= f.ShiftProb {
		return 0
	}
	if f.rng.Intn(2) == 0 {
		return -1
	}
	return 1
}
