package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dbc"
)

// The v1 wire codec. Encoding stays plain encoding/json, so the wire
// bytes are unchanged. Decoding takes fast paths on the exact bytes
// json.Marshal writes, and encoding/json stays the reference they are
// fuzzed against and the fallback for every other spelling:
//
//   - RowData and Lanes, the payload-sized value types, through their
//     own UnmarshalJSON;
//   - on the server, the /v1/execute and /v1/batch bodies
//     (ExecuteRequest and BatchRequest, with their Request and Addr
//     items), through decodeRequest;
//   - on the client, the replies to them (ExecuteResponse and
//     BatchResponse), through decodeReply.
//
// The canonical spelling has its fields in struct order, an omitempty
// field only when it is non-empty, no whitespace, no escapes and
// plain-ASCII strings; a reply also ends in the newline Encoder.Encode
// writes. CompileRequest, whose source carries escaped newlines, and
// every other type always take encoding/json.

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
	if n, words, next, ok := parseRowData(data, 0); ok && next == len(data) {
		rd.N, rd.Words = n, words
		return nil
	}
	return strictUnmarshal(data, (*rowDataJSON)(rd))
}

// parseRowData is RowData's fast path on the value at data[i:]; ok is
// false for any input that is not canonical.
func parseRowData(data []byte, i int) (n int, words []string, next int, ok bool) {
	if i, ok = expect(data, i, `{"n":`); !ok {
		return 0, nil, 0, false
	}
	v, i, ok := parseUint(data, i, intDigits)
	if !ok {
		return 0, nil, 0, false
	}
	if i, ok = expect(data, i, `,"words":[`); !ok {
		return 0, nil, 0, false
	}
	// First pass: validate and count the words, find the region end.
	start, count := i, 0
	for i < len(data) && data[i] == '"' {
		i++
		for i < len(data) && plain(data[i]) {
			i++
		}
		if i == len(data) || data[i] != '"' {
			return 0, nil, 0, false
		}
		i++
		count++
		if i+1 >= len(data) || data[i] != ',' || data[i+1] != '"' {
			break
		}
		i++
	}
	end := i
	if next, ok = expect(data, i, "]}"); !ok {
		return 0, nil, 0, false
	}
	// Second pass: cut the words out of one copy of the region.
	s := string(data[start:end])
	words = make([]string, count)
	for k := range words {
		e := 1 + strings.IndexByte(s[1:], '"')
		words[k] = s[1:e]
		if k+1 < count {
			s = s[e+2:]
		}
	}
	return int(v), words, next, true
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
	if v, next, ok := parseLanes(data, 0); ok && next == len(data) {
		*l = v
		return nil
	}
	return strictUnmarshal(data, (*[]uint64)(l))
}

// parseLanes is Lanes' fast path on the array at data[i:]; ok is false
// for any input that is not canonical.
func parseLanes(data []byte, i int) (vals Lanes, next int, ok bool) {
	end := bytes.IndexByte(data[i:], ']')
	if end < 1 || data[i] != '[' {
		return nil, 0, false
	}
	body := data[i+1 : i+end]
	next = i + end + 1
	if len(body) == 0 {
		return Lanes{}, next, true
	}
	vals = make(Lanes, bytes.Count(body, []byte{','})+1)
	j := 0
	for k := range vals {
		if k > 0 {
			if j == len(body) || body[j] != ',' {
				return nil, 0, false
			}
			j++
		}
		if vals[k], j, ok = parseUint(body, j, 19); !ok {
			return nil, 0, false
		}
	}
	return vals, next, j == len(body)
}

// decodeRequest decodes a request body into dst: an ExecuteRequest or
// a BatchRequest on its fast path when the body is canonical, anything
// else through strictUnmarshal.
func decodeRequest(data []byte, dst any) error {
	switch v := dst.(type) {
	case *ExecuteRequest:
		if parseExecuteRequest(data, v) {
			return nil
		}
	case *BatchRequest:
		if parseBatchRequest(data, v) {
			return nil
		}
	}
	return strictUnmarshal(data, dst)
}

// decodeReply decodes a reply body into out: an ExecuteResponse or a
// BatchResponse on its fast path when the body is canonical, anything
// else through encoding/json, which stops after the value and, as a
// client of a grow-only schema must, skips fields it does not know.
func decodeReply(data []byte, out any) error {
	switch v := out.(type) {
	case *ExecuteResponse:
		if parseExecuteResponse(data, v) {
			return nil
		}
	case *BatchResponse:
		if parseBatchResponse(data, v) {
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(out)
}

// The envelope fast paths below parse the whole body into fresh values
// and only then merge them into the target, so a body they turn down
// leaves the target as it was for the fallback. The merge follows
// encoding/json as reflect.DeepEqual sees it: a field the body does not
// hold keeps its value, and the items of an array decode into the
// target's old items while its backing array lasts. In a canonical body
// an omitempty field is present exactly when it is non-empty, so the
// parsers turn down a present empty one, and the merges copy the
// non-empty fields.

// parseExecuteRequest is ExecuteRequest's fast path; it reports false,
// leaving dst as it was, for any body that is not canonical.
func parseExecuteRequest(data []byte, dst *ExecuteRequest) bool {
	s := scan{data: data}
	tenant, shard := s.routing()
	r := s.request(1)
	if !s.end("}") {
		return false
	}
	if tenant != "" {
		dst.Tenant = tenant
	}
	if shard != nil {
		dst.Shard = shard
	}
	dst.Request.merge(r)
	return true
}

// opKey opens every item of a canonical batch body.
var opKey = []byte(`{"op":`)

// parseBatchRequest is BatchRequest's fast path; it reports false,
// leaving dst as it was, for any body that is not canonical.
func parseBatchRequest(data []byte, dst *BatchRequest) bool {
	s := scan{data: data}
	tenant, shard := s.routing()
	s.key(1, `"requests":[`)
	// No plain string holds a quote, so this counts the items.
	reqs := make([]Request, 0, bytes.Count(data, opKey))
	for !s.bad {
		start := s.i + 1
		s.lit("{")
		reqs = append(reqs, s.request(start))
		s.lit("}")
		if !s.skip(",") {
			break
		}
	}
	if !s.end("]}") {
		return false
	}
	if tenant != "" {
		dst.Tenant = tenant
	}
	if shard != nil {
		dst.Shard = shard
	}
	old := dst.Requests[:cap(dst.Requests)]
	for k := range reqs {
		if k < len(old) {
			m := old[k]
			m.merge(reqs[k])
			reqs[k] = m
		}
	}
	dst.Requests = reqs
	return true
}

// merge copies the non-empty fields of p, parsed from a canonical
// object, into r.
func (r *Request) merge(p Request) {
	r.Op = p.Op
	if p.Src != nil {
		r.Src = p.Src
	}
	if p.Operands != nil {
		r.Operands = p.Operands
	}
	if p.Dst != nil {
		r.Dst = p.Dst
	}
	if p.Blocksize != 0 {
		r.Blocksize = p.Blocksize
	}
	if p.Imm != 0 {
		r.Imm = p.Imm
	}
	if p.Row != nil {
		r.Row = p.Row
	}
	if p.Values != nil {
		r.Values = p.Values
	}
}

// parseExecuteResponse is ExecuteResponse's fast path; it reports
// false, leaving dst as it was, for any reply that is not canonical.
func parseExecuteResponse(data []byte, dst *ExecuteResponse) bool {
	s := scan{data: data}
	var p ExecuteResponse
	s.lit(`{"shard":`)
	p.Shard = s.int()
	s.lit(`,"row":`)
	p.Row = s.rowData()
	if s.skip(`,"values":`) {
		p.Values = s.lanes()
	}
	if !s.end("}\n") {
		return false
	}
	dst.Shard, dst.Row = p.Shard, p.Row
	if p.Values != nil {
		dst.Values = p.Values
	}
	return true
}

// itemSep separates the items of a canonical batch reply.
var itemSep = []byte("},{")

// parseBatchResponse is BatchResponse's fast path; it reports false,
// leaving dst as it was, for any reply that is not canonical.
func parseBatchResponse(data []byte, dst *BatchResponse) bool {
	s := scan{data: data}
	s.lit(`{"shard":`)
	shard := s.int()
	s.lit(`,"results":[`)
	// "},{" occurs only between items, or inside a string, so this is
	// the item count or more.
	items := make([]BatchItem, 0, bytes.Count(data, itemSep)+1)
	for !s.bad {
		items = append(items, s.batchItem())
		if !s.skip(",") {
			break
		}
	}
	if !s.end("]}\n") {
		return false
	}
	dst.Shard = shard
	old := dst.Results[:cap(dst.Results)]
	for k := range items {
		if k < len(old) {
			m := old[k]
			m.merge(items[k])
			items[k] = m
		}
	}
	dst.Results = items
	return true
}

// merge copies the non-empty fields of p, parsed from a canonical
// object, into it.
func (it *BatchItem) merge(p BatchItem) {
	if p.Row != nil {
		it.Row = p.Row
	}
	if p.Values != nil {
		it.Values = p.Values
	}
	if p.Error != nil {
		if it.Error != nil && p.Error.RetryAfterMS == 0 {
			// encoding/json decodes into the old error, which keeps
			// its retry hint when the reply has none.
			p.Error.RetryAfterMS = it.Error.RetryAfterMS
		}
		it.Error = p.Error
	}
}

// scan is a cursor over a canonical envelope. Its first mismatch sets
// bad, and every later step is then a no-op, so a parser reads as the
// spelling it accepts and asks once, at its end, whether it held.
type scan struct {
	data []byte
	i    int
	bad  bool
}

// has consumes the object key l if it is there, after a comma unless
// the cursor is at start, just inside the object's opening brace, and
// reports whether it was.
func (s *scan) has(start int, l string) bool {
	if s.bad {
		return false
	}
	i := s.i
	if i > start {
		if i == len(s.data) || s.data[i] != ',' {
			return false
		}
		i++
	}
	i, ok := expect(s.data, i, l)
	if ok {
		s.i = i
	}
	return ok
}

// key consumes the object key l, as has does, which must be there.
func (s *scan) key(start int, l string) {
	if !s.has(start, l) {
		s.bad = true
	}
}

// skip consumes the literal l if it is there, and reports whether it
// was.
func (s *scan) skip(l string) bool { return s.has(s.i, l) }

// lit consumes the literal l, which must be there.
func (s *scan) lit(l string) { s.key(s.i, l) }

// end reports whether the envelope parsed and what is left of it is
// exactly tail.
func (s *scan) end(tail string) bool {
	return !s.bad && string(s.data[s.i:]) == tail
}

func (s *scan) int() int {
	if s.bad {
		return 0
	}
	v, i, ok := parseInt(s.data, s.i)
	s.i, s.bad = i, !ok
	return v
}

// nonzero parses an omitempty int, which a canonical object holds only
// when it is not 0.
func (s *scan) nonzero() int {
	v := s.int()
	if v == 0 {
		s.bad = true
	}
	return v
}

// str parses a JSON string of plain characters into a copy of it.
func (s *scan) str() string {
	if s.bad || s.i == len(s.data) || s.data[s.i] != '"' {
		s.bad = true
		return ""
	}
	j := s.i + 1
	for j < len(s.data) && plain(s.data[j]) {
		j++
	}
	if j == len(s.data) || s.data[j] != '"' {
		s.bad = true
		return ""
	}
	v := string(s.data[s.i+1 : j])
	s.i = j + 1
	return v
}

func (s *scan) rowData() (rd RowData) {
	if !s.bad {
		var ok bool
		rd.N, rd.Words, s.i, ok = parseRowData(s.data, s.i)
		s.bad = !ok
	}
	return rd
}

func (s *scan) row() *RowData {
	rd := s.rowData()
	return &rd
}

// lanes parses an omitempty lane array, which a canonical object holds
// only when it is not empty.
func (s *scan) lanes() Lanes {
	if s.bad {
		return nil
	}
	v, i, ok := parseLanes(s.data, s.i)
	s.i, s.bad = i, !ok || len(v) == 0
	return v
}

// routing parses the opening brace and the optional tenant and shard
// fields ExecuteRequest and BatchRequest begin with.
func (s *scan) routing() (tenant string, shard *int) {
	s.lit("{")
	if s.has(1, `"tenant":`) {
		if tenant = s.str(); tenant == "" {
			s.bad = true
		}
	}
	if s.has(1, `"shard":`) {
		v := s.int()
		shard = &v
	}
	return tenant, shard
}

// request parses a Request's fields, from "op" on, inside an object
// whose opening brace ends at start.
func (s *scan) request(start int) (r Request) {
	s.key(start, `"op":`)
	r.Op = s.str()
	if s.has(start, `"src":`) {
		r.Src = s.addrRef()
	}
	if s.has(start, `"operands":`) {
		r.Operands = s.addrs()
	}
	if s.has(start, `"dst":`) {
		r.Dst = s.addrRef()
	}
	if s.has(start, `"blocksize":`) {
		r.Blocksize = s.nonzero()
	}
	if s.has(start, `"imm":`) {
		r.Imm = s.nonzero()
	}
	if s.has(start, `"row":`) {
		r.Row = s.row()
	}
	if s.has(start, `"values":`) {
		r.Values = s.lanes()
	}
	return r
}

// addr parses an Addr: all five fields.
func (s *scan) addr() (a Addr) {
	s.lit(`{"bank":`)
	a.Bank = s.int()
	s.lit(`,"subarray":`)
	a.Subarray = s.int()
	s.lit(`,"tile":`)
	a.Tile = s.int()
	s.lit(`,"dbc":`)
	a.DBC = s.int()
	s.lit(`,"row":`)
	a.Row = s.int()
	s.lit("}")
	return a
}

func (s *scan) addrRef() *Addr {
	a := s.addr()
	return &a
}

// addrs parses a non-empty array of Addrs. They hold no brackets, so
// the first ']' closes the array, and its braces count the items.
func (s *scan) addrs() []Addr {
	if s.bad {
		return nil
	}
	end := bytes.IndexByte(s.data[s.i:], ']')
	if end < 0 {
		s.bad = true
		return nil
	}
	addrs := make([]Addr, bytes.Count(s.data[s.i:s.i+end], []byte{'{'}))
	s.lit("[")
	for k := range addrs {
		if k > 0 {
			s.lit(",")
		}
		addrs[k] = s.addr()
	}
	s.lit("]")
	if len(addrs) == 0 {
		s.bad = true
	}
	return addrs
}

// batchItem parses a BatchItem.
func (s *scan) batchItem() (it BatchItem) {
	start := s.i + 1
	s.lit("{")
	if s.has(start, `"row":`) {
		it.Row = s.row()
	}
	if s.has(start, `"values":`) {
		it.Values = s.lanes()
	}
	if s.has(start, `"error":`) {
		it.Error = s.wireError()
	}
	s.lit("}")
	return it
}

// wireError parses a WireError.
func (s *scan) wireError() *WireError {
	we := new(WireError)
	s.lit(`{"code":`)
	we.Code = s.str()
	s.lit(`,"message":`)
	we.Message = s.str()
	if s.skip(`,"retry_after_ms":`) {
		we.RetryAfterMS = s.nonzero()
	}
	s.lit("}")
	return we
}

// expect consumes the literal lit at data[i:].
func expect(data []byte, i int, lit string) (int, bool) {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// intDigits is the most digits parseInt takes: every number of that
// many digits fits an int.
const intDigits = strconv.IntSize * 9 / 32

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

// parseInt consumes a JSON integer of at most intDigits digits at
// data[i:].
func parseInt(data []byte, i int) (int, int, bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	v, next, ok := parseUint(data, j, intDigits)
	if !ok {
		return 0, i, false
	}
	if j > i {
		return -int(v), next, true
	}
	return int(v), next, true
}

// plain reports whether c stands for itself inside a JSON string as
// encoding/json decodes it: printable ASCII other than quote and
// backslash.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\'
}

// strictUnmarshal is the fallback decoder of requests and of the
// closed value types: encoding/json with unknown fields rejected and
// nothing but whitespace after the value. A type with its own
// UnmarshalJSON does not inherit the outer decoder's settings, so the
// nested decoders restate them.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// bodies pools the buffers request and reply bodies are read into.
// Nothing decoded from a body aliases its buffer: the parsers copy what
// they keep, and so does encoding/json.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer putBody keeps: a rare large body,
// such as a wide batch or a compile program, does not stay pinned in
// the pool.
const maxPooledBody = 64 << 10

func getBody() *bytes.Buffer { return bodies.Get().(*bytes.Buffer) }

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodies.Put(buf)
	}
}
