package telemetry

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/trace"
)

// Hist is a log2-bucketed histogram of non-negative integer samples:
// bucket 0 counts zeros, bucket i counts values in [2^(i-1), 2^i), and
// the last bucket absorbs everything larger. Alongside the buckets it
// keeps the exact sum and maximum, so the summary accessors (Sum, Max,
// Mean, P50, P95) don't lose more precision than the bucketing itself.
type Hist struct {
	Buckets [18]uint64
	SumV    uint64 // exact sum of all observed samples
	MaxV    uint64 // exact maximum observed sample
}

// Observe adds one sample.
func (h *Hist) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.SumV += v
	if v > h.MaxV {
		h.MaxV = v
	}
}

// Total returns the number of samples observed.
func (h Hist) Total() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Sum returns the exact sum of the observed samples.
func (h Hist) Sum() uint64 { return h.SumV }

// Max returns the exact maximum observed sample (0 when empty).
func (h Hist) Max() uint64 { return h.MaxV }

// Quantile returns an upper-bound estimate of the q-quantile: the
// upper edge of the first bucket whose cumulative count reaches
// q×Total, clamped to the exact maximum. q outside (0,1] is clamped.
// The estimate is exact for bucket 0 (zeros) and otherwise within the
// 2× resolution of the log2 bucketing.
func (h Hist) Quantile(q float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			edge := (uint64(1) << i) - 1 // largest value of [2^(i-1), 2^i)
			if edge > h.MaxV {
				return h.MaxV
			}
			return edge
		}
	}
	return h.MaxV
}

// P50 returns the upper-bound median estimate (see Quantile).
func (h Hist) P50() uint64 { return h.Quantile(0.50) }

// P95 returns the upper-bound 95th-percentile estimate (see Quantile).
func (h Hist) P95() uint64 { return h.Quantile(0.95) }

// String renders the non-empty buckets compactly, e.g.
// "[1,2):3 [4,8):1".
func (h Hist) String() string {
	out := ""
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		switch {
		case i == 0:
			out += fmt.Sprintf("0:%d", c)
		case i == len(h.Buckets)-1:
			out += fmt.Sprintf("[%d,∞):%d", uint64(1)<<(i-1), c)
		default:
			out += fmt.Sprintf("[%d,%d):%d", uint64(1)<<(i-1), uint64(1)<<i, c)
		}
	}
	if out == "" {
		return "(empty)"
	}
	return out
}

// OpMetrics is the ledger entry of one event kind.
type OpMetrics struct {
	Steps      uint64 // control steps recorded (events for instants)
	WiresTotal uint64 // total affected nanowires/bits
}

// Metrics is a recorder's cost ledger: the count and wire total of every
// event kind it recorded — each control step, and each fault, row-move
// and mark instant. Span and window markers carry no device work and are
// not counted. Per-source, per-span and per-mark aggregates, energies
// and histograms are the hardware profiler's (telemetry/profile).
type Metrics struct {
	ops [numOps]OpMetrics
}

func (m *Metrics) add(op Op, wires int) {
	o := &m.ops[op]
	o.Steps++
	o.WiresTotal += uint64(wires)
}

// Op returns the ledger entry of one event kind.
func (m *Metrics) Op(op Op) OpMetrics { return m.ops[op] }

// Count returns the event count of one event kind.
func (m *Metrics) Count(op Op) uint64 { return m.ops[op].Steps }

// Stats returns the ledger's control steps as a trace.Stats: the step
// counts of every step kind and the wire counts of those that carry
// energy.
func (m *Metrics) Stats() trace.Stats {
	n := func(op Op) (steps, wires int) { return int(m.ops[op].Steps), int(m.ops[op].WiresTotal) }
	var s trace.Stats
	s.ShiftSteps, s.ShiftWires = n(OpShift)
	s.TRSteps, s.TRWires = n(OpTR)
	s.WriteSteps, s.WriteBits = n(OpWrite)
	s.ReadSteps, s.ReadBits = n(OpRead)
	s.TWSteps, s.TWBits = n(OpTW)
	s.CopySteps, s.CopyBits = n(OpCopy)
	s.LogicSteps, _ = n(OpLogic)
	s.StallSteps, _ = n(OpStall)
	return s
}
