package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/dbc"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// oldRowData is the per-word encoder NewRowData replaced: the reference
// for the wire bytes.
func oldRowData(r dbc.Row) RowData {
	rd := RowData{N: r.N, Words: make([]string, len(r.Words))}
	for i, w := range r.Words {
		rd.Words[i] = "0x" + strconv.FormatUint(w, 16)
	}
	return rd
}

// wireRows is a fixed set of rows covering empty, zero, tail-masked,
// full-width and extreme words.
func wireRows() []dbc.Row {
	rng := rand.New(rand.NewSource(13))
	full := dbc.NewRow(512)
	for i := range full.Words {
		full.Words[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	full.Words[0], full.Words[1], full.Words[2] = 0, ^uint64(0), 0xf
	tail := dbc.NewRow(130)
	tail.Words[0], tail.Words[1], tail.Words[2] = 1<<63, 0x10, 0x3
	return []dbc.Row{dbc.NewRow(0), dbc.NewRow(64), tail, full}
}

// TestWireBytesUnchanged: the one-string row encoder and the Lanes
// field type leave every reply byte identical to json.Marshal of the
// same values built with the per-word encoder.
func TestWireBytesUnchanged(t *testing.T) {
	for _, row := range wireRows() {
		lanes := pim.UnpackLanes(row, 8)
		build := func(enc func(dbc.Row) RowData) []any {
			rd := enc(row)
			return []any{
				ExecuteResponse{Shard: 1, Row: rd},
				ExecuteResponse{Shard: 0, Row: rd, Values: lanes},
				BatchResponse{Shard: 2, Results: []BatchItem{
					{Row: &rd, Values: lanes},
					{Row: &rd},
					{Error: &WireError{Code: "cross_dbc", Message: "m"}},
				}},
				CompileResponse{Shard: 1, Makespan: 9, Cycles: 12, Outputs: []CompileOutput{
					{Name: "y", Addr: Addr{Bank: 1, Row: 3}, Blocksize: 8, Row: rd, Values: lanes},
					{Name: "z", Row: rd},
				}},
			}
		}
		got, old := build(NewRowData), build(oldRowData)
		for i := range got {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, got[i])
			want, err := json.Marshal(old[i])
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("row of %d wires, value %d:\n got %s\nwant %s", row.N, i, rec.Body.Bytes(), want)
			}
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ExecuteResponse{Row: NewRowData(dbc.NewRow(64)), Values: Lanes{0, 1}})
	if got, want := rec.Body.String(), `{"shard":0,"row":{"n":64,"words":["0x0"]},"values":[0,1]}`+"\n"; got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

// TestCodecFastPathAllocs pins the point of the fast paths: a canonical
// row decodes in two allocations and a canonical lane array in one.
func TestCodecFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	row := wireRows()[3]
	rowJSON, _ := json.Marshal(NewRowData(row))
	lanesJSON, _ := json.Marshal(pim.UnpackLanes(row, 8))
	var rd RowData
	var l Lanes
	if n := testing.AllocsPerRun(16, func() {
		if err := rd.UnmarshalJSON(rowJSON); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("row decode: %.1f allocs, want 2", n)
	}
	if n := testing.AllocsPerRun(16, func() {
		if err := l.UnmarshalJSON(lanesJSON); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("lanes decode: %.1f allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(16, func() { rd = NewRowData(row) }); n != 2 {
		t.Errorf("row encode: %.1f allocs, want 2", n)
	}
}

// FuzzRowDataJSON: RowData.UnmarshalJSON gives exactly what strict
// encoding/json decoding into the alias type gives, on zero and on
// pre-filled targets — the same value (nil and empty slices differ)
// and the same success or failure.
func FuzzRowDataJSON(f *testing.F) {
	for _, row := range wireRows() {
		b, _ := json.Marshal(NewRowData(row))
		f.Add(b)
	}
	for _, s := range []string{
		`{ "n": 64, "words": [ "0x1" ] }`,
		`{"words":["0x1"],"n":64}`,
		`{"N":64,"Words":["0x1"]}`,
		`{"n":64,"words":["\u0030x1"]}`,
		`{"n":64,"words":["0x1"],"extra":1}`,
		`{"n":64,"words":["0x1",]}`,
		`{"n":64,"words":null}`,
		`{"n":0,"words":[]}`,
		`{"n":0,"words":[""]}`,
		`null`, `[]`, `{}`,
		`{"n":12345678901234567890,"words":[]}`,
		`{"n":-1,"words":[]}`,
		`{"n":01,"words":[]}`,
		`{"n":64,"words":["0x1"]}x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fill := range []func() RowData{
			func() RowData { return RowData{} },
			func() RowData { return RowData{N: 7, Words: []string{"0xdead", "0xbeef", "0x0"}} },
		} {
			got, want := fill(), fill()
			gotErr := got.UnmarshalJSON(data)
			wantErr := strictUnmarshal(data, (*rowDataJSON)(&want))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: err %v, encoding/json err %v", data, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: got %#v, encoding/json %#v", data, got, want)
			}
		}
	})
}

// FuzzLanesJSON: Lanes.UnmarshalJSON gives exactly what strict
// encoding/json decoding into []uint64 gives, on zero and on
// pre-filled targets.
func FuzzLanesJSON(f *testing.F) {
	for _, row := range wireRows() {
		b, _ := json.Marshal(pim.UnpackLanes(row, 8))
		f.Add(b)
	}
	for _, s := range []string{
		`[1,2,3]`, `[ 1, 2 ]`, `[]`, `[ ]`, `null`, `[0]`,
		`[12345678901234567890]`, `[18446744073709551615]`,
		`[18446744073709551616]`, `[9999999999999999999]`,
		`[-1]`, `[1.0]`, `[1e3]`, `[01]`, `[1,]`, `[,1]`, `["1"]`,
		`[1,2`, `{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fill := range []func() Lanes{
			func() Lanes { return nil },
			func() Lanes { return Lanes{5, 6, 7} },
		} {
			got, want := fill(), []uint64(fill())
			gotErr := got.UnmarshalJSON(data)
			wantErr := strictUnmarshal(data, &want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: err %v, encoding/json err %v", data, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, Lanes(want)) {
				t.Fatalf("%q: got %#v, encoding/json %#v", data, got, want)
			}
		}
	})
}

// FuzzDecodeRequest: any /v1/execute or /v1/batch body either fails
// with a 4xx error of the bad-request, lane-overflow or too-large
// family, or lowers to well-formed memory requests. It never panics
// and never maps to a 500.
func FuzzDecodeRequest(f *testing.F) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	executeLimit, batchLimit := bodyLimits(cfg.Geometry.TrackWidth)
	pimDBC, a, b := &Addr{DBC: 15}, Addr{Tile: 1}, Addr{Tile: 1, Row: 1}
	shard := 0
	for _, req := range []Request{
		{Op: "write", Dst: &a, Blocksize: 8, Values: Lanes{1, 2, 255}},
		{Op: "write", Dst: &a, Row: &RowData{N: 64, Words: []string{"0xff"}}},
		{Op: "add", Src: pimDBC, Blocksize: 8, Operands: []Addr{a, b}, Dst: &b},
		{Op: "copy", Src: &a, Dst: &b},
		{Op: "read", Src: &a, Blocksize: 8},
	} {
		body, _ := json.Marshal(ExecuteRequest{Tenant: "t", Shard: &shard, Request: req})
		f.Add(false, body)
		body, _ = json.Marshal(BatchRequest{Requests: []Request{req, req}})
		f.Add(true, body)
	}
	for _, s := range []string{
		`{"op":"write","dst":{},"values":[]}`,
		`{"op":"write","dst":{},"blocksize":8,"values":[256]}`,
		`{"op":"write","dst":{},"row":{"n":64,"words":["0xg"]}}`,
		`{"op":"write","dst":{},"row":{"n":65,"words":["0x1"]}}`,
		`{"op":"write","dst":{},"row":{"n":64,"words":["0x1"],"x":0}}`,
		`{"op":"write","dst":{},"blocksize":-8,"values":[1]}`,
		`{"op":"nope","src":{},"dst":{}}`,
		`{"requests":[{"op":"read"}]}`,
		`{"op": `, `null`, ``,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		fourxx := func(err error) {
			status, we := encodeError(err, 0)
			if status < 400 || status >= 500 ||
				!(errors.Is(err, ErrBadRequest) || errors.Is(err, pim.ErrLaneOverflow) || errors.Is(err, ErrTooLarge)) {
				t.Fatalf("%q: %v maps to %d %q", body, err, status, we.Code)
			}
		}
		var er ExecuteRequest
		var br BatchRequest
		dst, path, limit := any(&er), PathExecute, executeLimit
		if batch {
			dst, path, limit = &br, PathBatch, batchLimit
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err := decodeBody(httptest.NewRecorder(), r, dst, limit); err != nil {
			fourxx(err)
			return
		}
		reqs := br.Requests
		if !batch {
			reqs = []Request{er.Request}
		}
		for _, q := range reqs {
			mr, err := q.toMemory(cfg, pim.PackLanes)
			if err != nil {
				fourxx(err)
				continue
			}
			switch mr.Kind {
			case memory.KindWrite:
				n := mr.Row.N
				if n < 0 || len(mr.Row.Words) != (n+63)/64 || (n%64 != 0 && mr.Row.Words[n/64]>>uint(n%64) != 0) {
					t.Fatalf("%q: malformed write row %+v", body, mr.Row)
				}
			case memory.KindExec:
				if mr.In.Operands != len(mr.Operands) {
					t.Fatalf("%q: %d operands, instruction says %d", body, len(mr.Operands), mr.In.Operands)
				}
			case memory.KindCopy, memory.KindRead:
			default:
				t.Fatalf("%q: request kind %v", body, mr.Kind)
			}
		}
	})
}
