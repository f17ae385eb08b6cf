package dbc

import (
	"fmt"
	"math/bits"
)

// Row is a horizontal bit vector across a DBC's nanowires, word-packed
// 64 wires per machine word: the bit of wire w is bit w%64 of
// Words[w/64]. It is the unit of data exchanged with a DBC — port
// reads/writes, transverse writes and loads all move whole rows — and
// matches the bit-plane layout of device.PlaneArray, so those transfers
// are straight word copies.
//
// Ownership: every Row returned by a DBC accessor (PeekRow, ReadPort,
// PeekWindow) or evaluated from level planes (EvalPlanes) is an owned
// copy; mutating it never aliases domain state. Rows passed *into* a
// DBC are copied on entry. The zero value Row{} is the "no row"
// sentinel (it has N == 0) used where a nil slice was idiomatic before
// the packed representation.
//
// Bits beyond N in the last word must be zero; all constructors and
// Set maintain that invariant, and word-level writers should finish
// with MaskTail.
type Row struct {
	Words []uint64
	N     int
}

// NewRow returns an all-zero row of n wires.
func NewRow(n int) Row {
	return Row{Words: make([]uint64, (n+63)/64), N: n}
}

// FromBits packs per-wire bits into a row.
func FromBits(bitsIn ...uint8) Row {
	r := NewRow(len(bitsIn))
	for i, b := range bitsIn {
		if b&1 != 0 {
			r.Words[i>>6] |= 1 << uint(i&63)
		}
	}
	return r
}

// ConstRow returns a row of n wires all holding bit.
func ConstRow(n int, bit uint8) Row {
	r := NewRow(n)
	if bit&1 != 0 {
		for i := range r.Words {
			r.Words[i] = ^uint64(0)
		}
		r.MaskTail()
	}
	return r
}

// Len returns the number of wires.
func (r Row) Len() int { return r.N }

// IsEmpty reports whether r is the zero-value "no row" sentinel.
func (r Row) IsEmpty() bool { return r.N == 0 && r.Words == nil }

// Get returns the bit of wire i.
func (r Row) Get(i int) uint8 {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("dbc: wire %d out of range [0,%d)", i, r.N))
	}
	return uint8(r.Words[i>>6]>>uint(i&63)) & 1
}

// Set writes the bit of wire i. The receiver's backing words are
// mutated, so Set works through any copy of the Row header.
func (r Row) Set(i int, b uint8) {
	if i < 0 || i >= r.N {
		panic(fmt.Sprintf("dbc: wire %d out of range [0,%d)", i, r.N))
	}
	if b&1 != 0 {
		r.Words[i>>6] |= 1 << uint(i&63)
	} else {
		r.Words[i>>6] &^= 1 << uint(i&63)
	}
}

// Bits unpacks the row into one uint8 per wire.
func (r Row) Bits() []uint8 {
	out := make([]uint8, r.N)
	for i := range out {
		out[i] = uint8(r.Words[i>>6]>>uint(i&63)) & 1
	}
	return out
}

// Clone returns an owned copy of the row.
func (r Row) Clone() Row {
	out := Row{Words: make([]uint64, len(r.Words)), N: r.N}
	copy(out.Words, r.Words)
	return out
}

// Equal reports whether two rows hold the same bits.
func (r Row) Equal(o Row) bool {
	if r.N != o.N {
		return false
	}
	for i, w := range r.Words {
		if w != o.Words[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of '1' bits in the row.
func (r Row) OnesCount() int {
	n := 0
	for _, w := range r.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// TailMask returns the valid-bit mask of the last word of an n-wire row.
func TailMask(n int) uint64 {
	if rem := n % 64; rem != 0 {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// MaskTail clears stray bits beyond N in the last word, restoring the
// Row invariant after word-level surgery on Words.
func (r Row) MaskTail() {
	if len(r.Words) > 0 {
		r.Words[len(r.Words)-1] &= TailMask(r.N)
	}
}

func (r Row) String() string {
	b := make([]byte, r.N)
	for i := range b {
		b[i] = '0' + byte(r.Get(i))
	}
	return string(b)
}
