package service

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"

	"repro/internal/dbc"
)

// The codec of the two payload-sized v1 value types, RowData and Lanes.
// Encoding stays plain encoding/json, so the wire bytes are unchanged.
// The decoders' fallbacks are also the reference FuzzRowDataJSON and
// FuzzLanesJSON hold the fast paths to.

// hexLen is the length of "0x" + strconv.FormatUint(w, 16).
func hexLen(w uint64) int {
	if w == 0 {
		return 3
	}
	return 2 + (bits.Len64(w)+3)/4
}

// NewRowData encodes a row in its wire form. All words are written into
// one string and Words[i] are substrings of it, so a row costs two
// allocations (the string and the slice) whatever its width.
func NewRowData(r dbc.Row) RowData {
	size := 0
	for _, w := range r.Words {
		size += hexLen(w)
	}
	var b strings.Builder
	b.Grow(size)
	for _, w := range r.Words {
		b.WriteString("0x")
		for sh := (hexLen(w) - 3) * 4; sh >= 0; sh -= 4 {
			b.WriteByte("0123456789abcdef"[w>>uint(sh)&0xf])
		}
	}
	s := b.String()
	rd := RowData{N: r.N, Words: make([]string, len(r.Words))}
	for i, w := range r.Words {
		n := hexLen(w)
		rd.Words[i], s = s[:n], s[n:]
	}
	return rd
}

// rowDataJSON is RowData without its UnmarshalJSON: the strict
// encoding/json decoding the fast path must agree with.
type rowDataJSON RowData

// UnmarshalJSON decodes a wire row. The canonical spelling,
// {"n":N,"words":["0x…",…]} with no whitespace and no escapes, is
// parsed in place: the words region is copied once into one string,
// the words are substrings of it, and Words is allocated once at its
// counted length. Any other spelling (whitespace, key order,
// case-folded keys, escapes, null, extra keys) decodes through
// encoding/json with unknown fields rejected.
func (rd *RowData) UnmarshalJSON(data []byte) error {
	if n, words, ok := parseRowData(data); ok {
		rd.N, rd.Words = n, words
		return nil
	}
	return strictUnmarshal(data, (*rowDataJSON)(rd))
}

// parseRowData is RowData's fast path; ok is false for any input that
// is not canonical.
func parseRowData(data []byte) (n int, words []string, ok bool) {
	i, ok := expect(data, 0, `{"n":`)
	if !ok {
		return 0, nil, false
	}
	v, i, ok := parseUint(data, i, 18)
	if !ok {
		return 0, nil, false
	}
	if i, ok = expect(data, i, `,"words":[`); !ok {
		return 0, nil, false
	}
	// First pass: validate and count the words, find the region end.
	start, count := i, 0
	for i < len(data) && data[i] == '"' {
		i++
		for i < len(data) && plain(data[i]) {
			i++
		}
		if i == len(data) || data[i] != '"' {
			return 0, nil, false
		}
		i++
		count++
		if i+1 >= len(data) || data[i] != ',' || data[i+1] != '"' {
			break
		}
		i++
	}
	if string(data[i:]) != "]}" {
		return 0, nil, false
	}
	// Second pass: cut the words out of one copy of the region.
	s := string(data[start:i])
	words = make([]string, count)
	for k := range words {
		end := 1 + strings.IndexByte(s[1:], '"')
		words[k] = s[1:end]
		if k+1 < count {
			s = s[end+2:]
		}
	}
	return int(v), words, true
}

// Lanes is a lane-value array on the wire: the Values field of
// requests and replies, a JSON array of unsigned integers. It converts
// to and from []uint64 freely.
type Lanes []uint64

// UnmarshalJSON decodes a lane array. The canonical spelling, [d,d,…]
// with no whitespace and at most 19 digits per element, is parsed after
// counting its commas, so the slice is allocated once; [] gives an
// empty non-nil slice, as encoding/json does. Any other spelling
// decodes through encoding/json.
func (l *Lanes) UnmarshalJSON(data []byte) error {
	if v, ok := parseLanes(data); ok {
		*l = v
		return nil
	}
	return strictUnmarshal(data, (*[]uint64)(l))
}

// parseLanes is Lanes' fast path; ok is false for any input that is not
// canonical.
func parseLanes(data []byte) (Lanes, bool) {
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return nil, false
	}
	body := data[1 : len(data)-1]
	if len(body) == 0 {
		return Lanes{}, true
	}
	vals := make(Lanes, bytes.Count(body, []byte{','})+1)
	i := 0
	for k := range vals {
		if k > 0 {
			if i == len(body) || body[i] != ',' {
				return nil, false
			}
			i++
		}
		v, next, ok := parseUint(body, i, 19)
		if !ok {
			return nil, false
		}
		vals[k], i = v, next
	}
	return vals, i == len(body)
}

// expect consumes the literal lit at data[i:].
func expect(data []byte, i int, lit string) (int, bool) {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// parseUint consumes a JSON unsigned integer of 1 to maxDigits digits
// at data[i:], without a leading zero (which JSON forbids).
func parseUint(data []byte, i, maxDigits int) (v uint64, next int, ok bool) {
	j := i
	for j < len(data) && '0' <= data[j] && data[j] <= '9' {
		v = v*10 + uint64(data[j]-'0')
		j++
	}
	if d := j - i; d == 0 || d > maxDigits || (d > 1 && data[i] == '0') {
		return 0, i, false
	}
	return v, j, true
}

// plain reports whether c stands for itself inside a JSON string as
// encoding/json decodes it: printable ASCII other than quote and
// backslash.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\'
}

// strictUnmarshal is the fallback decoder. A type with its own
// UnmarshalJSON does not inherit the outer decoder's settings, so it
// restates decodeBody's DisallowUnknownFields for nested values.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
