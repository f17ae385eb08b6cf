package pim

import (
	"errors"
	"fmt"

	"repro/internal/dbc"
	"repro/internal/device"
)

// Port side aliases used throughout the package.
const (
	dbcLeft  = device.Left
	dbcRight = device.Right
)

// ErrLaneOverflow reports a lane-packing violation: a value that does
// not fit its lane, more values than the row has lanes, or a row width
// the lane size does not divide. Wrapped by PackLanes and the lane-wise
// operand checks; test with errors.Is.
var ErrLaneOverflow = errors.New("pim: value or lane count overflows the lane layout")

// PackLanes packs vals into a row of the given total width, one value per
// lane of lane bits. Bit j of vals[l] lands on wire l·lane+j, i.e. each
// lane is little-endian along the wire index — matching the carry chain,
// which propagates toward higher wire indices (Fig. 6). Values must fit
// in lane bits.
//
// Because the packed Row uses the same little-endian wire order, packing
// is a direct word move: a lane that divides the word size lands with one
// shift-or, and lanes of 64 bits or wider land with one word store.
func PackLanes(vals []uint64, lane, width int) (dbc.Row, error) {
	if lane <= 0 || width%lane != 0 {
		return dbc.Row{}, fmt.Errorf("pim: width %d not divisible by lane %d: %w", width, lane, ErrLaneOverflow)
	}
	if len(vals) > width/lane {
		return dbc.Row{}, fmt.Errorf("pim: %d values exceed %d lanes: %w", len(vals), width/lane, ErrLaneOverflow)
	}
	for _, v := range vals {
		if lane < 64 && v >= 1<<uint(lane) {
			return dbc.Row{}, fmt.Errorf("pim: value %d does not fit in %d-bit lane: %w", v, lane, ErrLaneOverflow)
		}
	}
	row := dbc.NewRow(width)
	for l, v := range vals {
		switch {
		case 64%lane == 0:
			per := 64 / lane
			row.Words[l/per] |= v << (uint(l%per) * uint(lane))
		case lane%64 == 0:
			row.Words[l*(lane/64)] = v
		default:
			for j := 0; j < lane && j < 64; j++ {
				row.Set(l*lane+j, uint8(v>>uint(j))&1)
			}
		}
	}
	row.MaskTail()
	return row, nil
}

// MustPackLanes is PackLanes panicking on error, for fixed-shape callers.
func MustPackLanes(vals []uint64, lane, width int) dbc.Row {
	row, err := PackLanes(vals, lane, width)
	if err != nil {
		panic(err)
	}
	return row
}

// UnpackLanes extracts the lane values of a row (lanes wider than 64 bits
// are truncated to their low 64 bits).
func UnpackLanes(row dbc.Row, lane int) []uint64 {
	n := row.N / lane
	vals := make([]uint64, n)
	for l := 0; l < n; l++ {
		switch {
		case 64%lane == 0:
			per := 64 / lane
			v := row.Words[l/per] >> (uint(l%per) * uint(lane))
			if lane < 64 {
				v &= 1<<uint(lane) - 1
			}
			vals[l] = v
		case lane%64 == 0:
			vals[l] = row.Words[l*(lane/64)]
		default:
			var v uint64
			for j := 0; j < lane && j < 64; j++ {
				v |= uint64(row.Get(l*lane+j)) << uint(j)
			}
			vals[l] = v
		}
	}
	return vals
}

// zeroRow returns an all-zero row of the given width.
func zeroRow(width int) dbc.Row { return dbc.NewRow(width) }

// constRow returns a row filled with the given bit.
func constRow(width int, bit uint8) dbc.Row { return dbc.ConstRow(width, bit) }

// copyRow returns a copy of r.
func copyRow(r dbc.Row) dbc.Row { return r.Clone() }

// lanePattern returns the word mask with bit `bit` of every lane set,
// for lanes that divide the word size.
func lanePattern(lane, bit int) uint64 {
	var p uint64
	for j := bit; j < 64; j += lane {
		p |= 1 << uint(j)
	}
	return p
}

// laneShiftLeftKInto writes into out, a row of r's width, r logically
// shifted left by k bit positions within each lane of the given width:
// bit j moves to bit j+k, the lane's top k bits are discarded, the
// bottom k bits become zero. With k=1 this is the Fig. 4(a) brown i→i+1
// forwarding path (§III-D: a logical left shift, multiply by two). The
// shift runs word-at-a-time: a cross-word carry chain plus one
// lane-boundary mask. out == r is allowed (in-place shift): words are
// filled from the high index down, so every source word is read before
// it can be overwritten. Any k ≥ 0 is supported (k ≥ lane zeroes the
// lanes); shifts wider than a word decompose into a whole-word move
// plus a sub-word carry chain.
func laneShiftLeftKInto(out, r dbc.Row, lane, k int) {
	if k >= lane {
		for i := range out.Words {
			out.Words[i] = 0
		}
		return
	}
	kw, kb := k/64, uint(k%64)
	for i := len(r.Words) - 1; i >= 0; i-- {
		var w uint64
		if i-kw >= 0 {
			w = r.Words[i-kw] << kb
			if kb > 0 && i-kw-1 >= 0 {
				w |= r.Words[i-kw-1] >> (64 - kb)
			}
		}
		out.Words[i] = w
	}
	clearLaneLow(out, lane, k)
	out.MaskTail()
}

// clearLaneLow zeroes the k low bits of every lane of out in place.
func clearLaneLow(out dbc.Row, lane, k int) {
	switch {
	case k == 0:
	case 64%lane == 0:
		// Clear the k low bits of every lane in one mask per word.
		var low uint64
		for b := 0; b < k; b++ {
			low |= lanePattern(lane, b)
		}
		for i := range out.Words {
			out.Words[i] &^= low
		}
	case lane%64 == 0:
		for base := 0; base < len(out.Words); base += lane / 64 {
			for i := 0; i < k/64; i++ {
				out.Words[base+i] = 0
			}
			if kb := uint(k % 64); kb > 0 {
				out.Words[base+k/64] &^= 1<<kb - 1
			}
		}
	default:
		for base := 0; base < out.N; base += lane {
			for b := 0; b < k; b++ {
				out.Set(base+b, 0)
			}
		}
	}
}

// laneShiftRightKInto writes r logically shifted right by k bit
// positions within each lane into out: bit j moves to bit j−k, the
// lane's bottom k bits are discarded, the top k bits become zero.
// out == r is allowed: words fill from the low index up, reading only
// indices at or above the one being written.
func laneShiftRightKInto(out, r dbc.Row, lane, k int) {
	if k >= lane {
		for i := range out.Words {
			out.Words[i] = 0
		}
		return
	}
	kw, kb := k/64, uint(k%64)
	n := len(r.Words)
	for i := 0; i < n; i++ {
		var w uint64
		if i+kw < n {
			w = r.Words[i+kw] >> kb
			if kb > 0 && i+kw+1 < n {
				w |= r.Words[i+kw+1] << (64 - kb)
			}
		}
		out.Words[i] = w
	}
	clearLaneHigh(out, lane, k)
	out.MaskTail()
}

// clearLaneHigh zeroes the k high bits of every lane of out in place.
func clearLaneHigh(out dbc.Row, lane, k int) {
	switch {
	case k == 0:
	case 64%lane == 0:
		var high uint64
		for b := lane - k; b < lane; b++ {
			high |= lanePattern(lane, b)
		}
		for i := range out.Words {
			out.Words[i] &^= high
		}
	case lane%64 == 0:
		wpl := lane / 64
		for base := 0; base < len(out.Words); base += wpl {
			for i := 0; i < k/64; i++ {
				out.Words[base+wpl-1-i] = 0
			}
			if kb := uint(k % 64); kb > 0 {
				out.Words[base+wpl-1-k/64] &^= ((1 << kb) - 1) << (64 - kb)
			}
		}
	default:
		for base := 0; base < out.N; base += lane {
			for b := lane - k; b < lane; b++ {
				out.Set(base+b, 0)
			}
		}
	}
}

func laneShiftLeftInto(out, r dbc.Row, lane int) { laneShiftLeftKInto(out, r, lane, 1) }

// zeroLane clears lane l of row r in place, word-at-a-time.
func zeroLane(r dbc.Row, l, lane int) {
	base := l * lane
	switch {
	case 64%lane == 0:
		mask := (uint64(1)<<uint(lane) - 1) << uint(base%64)
		if lane == 64 {
			mask = ^uint64(0)
		}
		r.Words[base/64] &^= mask
	case lane%64 == 0:
		for i := base / 64; i < (base+lane)/64; i++ {
			r.Words[i] = 0
		}
	default:
		for t := base; t < base+lane; t++ {
			r.Set(t, 0)
		}
	}
}
