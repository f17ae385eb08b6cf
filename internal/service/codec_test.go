package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// canonicalEnvelopes are the envelopes of a serving client's traffic,
// spelled as their senders write them: the /v1/execute bodies of an
// add, a read and a 64-lane write and a three-item /v1/batch body, as
// json.Marshal writes them, and an execute and a batch reply of
// 512-wire rows, as the handlers write them.
func canonicalEnvelopes(t testing.TB) (execute, read, write, batch, executeReply, batchReply []byte) {
	shard := 0
	row := wireRows()[3]
	lanes := pim.UnpackLanes(row, 8)
	pimDBC, a, b, d := &Addr{DBC: 15}, Addr{Tile: 1}, Addr{Tile: 1, Row: 1}, Addr{Tile: 2, Row: 4}
	add := Request{Op: "add", Src: pimDBC, Blocksize: 8, Operands: []Addr{a, b}, Dst: &d}
	marshal := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	reply := func(v any) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.Bytes()
	}
	rd := NewRowData(row)
	return marshal(ExecuteRequest{Tenant: "mixed-0", Shard: &shard, Request: add}),
		marshal(ExecuteRequest{Tenant: "mixed-0", Shard: &shard, Request: Request{Op: "read", Src: &a}}),
		marshal(ExecuteRequest{Tenant: "mixed-0", Shard: &shard, Request: Request{Op: "write", Dst: &a, Blocksize: 8, Values: lanes}}),
		marshal(BatchRequest{Tenant: "mixed-0", Shard: &shard, Requests: []Request{add, add, {Op: "read", Src: &d}}}),
		reply(ExecuteResponse{Shard: 0, Row: rd, Values: lanes}),
		reply(BatchResponse{Shard: 0, Results: []BatchItem{{Row: &rd, Values: lanes}, {Row: &rd, Values: lanes}, {Row: &rd}}})
}

// TestCodecFastPathAllocs pins the point of the fast paths: a canonical
// row decodes in two allocations and a canonical lane array in one,
// and a canonical envelope in one per string, pointer, slice and row it
// holds. encoding/json spends 14 to 33 on each of these envelopes.
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

	execute, read, write, batch, executeReply, batchReply := canonicalEnvelopes(t)
	var er ExecuteRequest
	var br BatchRequest
	var eo ExecuteResponse
	var bo BatchResponse
	for _, c := range []struct {
		name   string
		decode func() error
		want   float64
	}{
		// tenant, shard, op, src, operands, dst
		{"execute body", func() error { er = ExecuteRequest{}; return decodeRequest(execute, &er) }, 6},
		// tenant, shard, op, src
		{"read body", func() error { er = ExecuteRequest{}; return decodeRequest(read, &er) }, 4},
		// tenant, shard, op, dst, values
		{"write body", func() error { er = ExecuteRequest{}; return decodeRequest(write, &er) }, 5},
		// tenant, shard, the items, and 4 + 4 + 2 for the items' fields
		{"batch body", func() error { br = BatchRequest{}; return decodeRequest(batch, &br) }, 13},
		// the row's string and words, values
		{"execute reply", func() error { eo = ExecuteResponse{}; return decodeReply(executeReply, &eo) }, 3},
		// the items, 3 for each row, values twice
		{"batch reply", func() error { bo = BatchResponse{}; return decodeReply(batchReply, &bo) }, 12},
	} {
		if n := testing.AllocsPerRun(16, func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("%s: %.1f allocs, want %.0f", c.name, n, c.want)
		}
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

// prefilledRequest is a Request with every field set: the old value a
// pre-filled decoding target starts from.
func prefilledRequest() Request {
	return Request{Op: "old", Src: &Addr{Bank: 1, Row: 2}, Operands: []Addr{{Tile: 3}, {DBC: 4}, {Row: 5}},
		Dst: &Addr{Subarray: 6}, Blocksize: 16, Imm: 3, Row: &RowData{N: 7, Words: []string{"0x1"}}, Values: Lanes{9, 9}}
}

// FuzzRequestEnvelopeJSON: decodeRequest gives exactly what strict
// encoding/json gives for /v1/execute and /v1/batch bodies, on zero
// and on pre-filled targets: the same value (nil and empty slices
// differ) and the same success or failure. The pre-filled batch keeps
// an old item past its length, which encoding/json decodes into.
func FuzzRequestEnvelopeJSON(f *testing.F) {
	execute, read, write, batch, _, _ := canonicalEnvelopes(f)
	f.Add(false, execute)
	f.Add(false, read)
	f.Add(false, write)
	f.Add(true, batch)
	for _, s := range []string{
		`{"op":""}`,
		`{"op":"read","src":{"bank":0,"subarray":0,"tile":1,"dbc":0,"row":0}}`,
		`{"tenant":"","op":"read"}`,
		`{"shard":-3,"op":"not","imm":-1,"blocksize":-8}`,
		`{"shard":-0,"op":"read"}`,
		`{"op":"add","operands":[]}`,
		`{"op":"write","values":[]}`,
		`{"op":"read","blocksize":0}`,
		`{"op":"read","blocksize":123456789012345678}`,
		`{"op":"read","blocksize":1234567890123456789}`,
		`{"op":"read","src":{"tile":1}}`,
		`{"op":"read","SRC":{"bank":0,"subarray":0,"tile":1,"dbc":0,"row":0}}`,
		`{"op":"read","dst":{"bank":0,"subarray":0,"tile":0,"dbc":0,"row":0},"src":{"bank":0,"subarray":0,"tile":0,"dbc":0,"row":0}}`,
		`{"op":"read","op":"write"}`,
		`{"op":"write","row":{"n":64,"words":["0x1"]},"values":[1]}`,
		`{"op":"write","row":{"n":64,"words":["0x1"],"x":1}}`,
		`{"tenant":"a\u0062","op":"read"}`,
		`{"op":"read","src":{"bank":0,"subarray":0,"tile":1,"dbc":0,"row":0}}x`,
		`{"op":"read"} `,
		`{"requests":[{"op":"read"},{"op":"add","imm":2}]}`,
		`{"requests":[{"op":"read"},{"op":"read"},{"op":"read"},{"op":"read"}]}`,
		`{"tenant":"t","requests":[{"op":"read"}]}`,
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[{"op":"read"}],"shard":0}`,
		`null`, `{}`, ``,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	f.Fuzz(func(t *testing.T, batch bool, data []byte) {
		if batch {
			for _, fill := range []func() BatchRequest{
				func() BatchRequest { return BatchRequest{} },
				func() BatchRequest {
					reqs := make([]Request, 2, 3)
					reqs[0], reqs[1] = prefilledRequest(), prefilledRequest()
					reqs[:3][2] = Request{Op: "stale", Imm: 7, Values: Lanes{1}}
					return BatchRequest{Tenant: "old", Shard: ptr(5), Requests: reqs[:1]}
				},
			} {
				got, want := fill(), fill()
				gotErr := decodeRequest(data, &got)
				wantErr := strictUnmarshal(data, &want)
				if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%q:\n got %#v, err %v\nwant %#v, err %v", data, got, gotErr, want, wantErr)
				}
			}
			return
		}
		for _, fill := range []func() ExecuteRequest{
			func() ExecuteRequest { return ExecuteRequest{} },
			func() ExecuteRequest {
				return ExecuteRequest{Tenant: "old", Shard: ptr(5), Request: prefilledRequest()}
			},
		} {
			got, want := fill(), fill()
			gotErr := decodeRequest(data, &got)
			wantErr := strictUnmarshal(data, &want)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\n got %#v, err %v\nwant %#v, err %v", data, got, gotErr, want, wantErr)
			}
		}
	})
}

// FuzzReplyEnvelopeJSON: decodeReply gives exactly what the client's
// encoding/json decoding gives for /v1/execute and /v1/batch replies,
// on zero and on pre-filled targets.
func FuzzReplyEnvelopeJSON(f *testing.F) {
	_, _, _, _, executeReply, batchReply := canonicalEnvelopes(f)
	f.Add(false, executeReply)
	f.Add(true, batchReply)
	for _, s := range []string{
		`{"shard":1,"row":{"n":64,"words":["0x1"]}}` + "\n",
		`{"shard":1,"row":{"n":64,"words":["0x1"]}}`,
		`{"shard":1,"row":{"n":64,"words":["0x1"]},"values":[]}` + "\n",
		`{"shard":1,"row":{"n":64,"words":["0x1"]},"cycles":5}` + "\n",
		`{"shard":-1,"row":{"n":0,"words":[]},"values":[1,2]}` + "\n",
		`{"shard":1,"row":{"n":64,"words":null}}` + "\n",
		`{"shard":0,"results":[{"error":{"code":"cross_dbc","message":"m"}},{"row":{"n":64,"words":["0x1"]}}]}` + "\n",
		`{"shard":0,"results":[{"error":{"code":"overloaded","message":"m","retry_after_ms":25}}]}` + "\n",
		`{"shard":0,"results":[{"error":{"code":"bad_request","message":"op \"x\""}}]}` + "\n",
		`{"shard":0,"results":[{"error":{"code":"x","message":"a},{b"}},{}]}` + "\n",
		`{"shard":0,"results":[{},{},{}]}` + "\n",
		`{"shard":0,"results":[{"values":[3]}]}` + "\n",
		`{"shard":0,"results":[]}` + "\n",
		`{"shard":0,"results":null}` + "\n",
		`{"shard":0,"results":[{"row":{"n":64,"words":["0x1"]}}]}` + "\n\n",
		`null`, `{}`, ``,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	f.Fuzz(func(t *testing.T, batch bool, data []byte) {
		decode := func(v any) error { return json.NewDecoder(bytes.NewReader(data)).Decode(v) }
		if batch {
			for _, fill := range []func() BatchResponse{
				func() BatchResponse { return BatchResponse{} },
				func() BatchResponse {
					items := make([]BatchItem, 2, 3)
					for k := range items[:3] {
						items[:3][k] = BatchItem{Row: &RowData{N: 7, Words: []string{"0x1"}}, Values: Lanes{9},
							Error: &WireError{Code: "old", Message: "old", RetryAfterMS: 5}}
					}
					return BatchResponse{Shard: 3, Results: items[:1]}
				},
			} {
				got, want := fill(), fill()
				gotErr := decodeReply(data, &got)
				wantErr := decode(&want)
				if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%q:\n got %#v, err %v\nwant %#v, err %v", data, got, gotErr, want, wantErr)
				}
			}
			return
		}
		for _, fill := range []func() ExecuteResponse{
			func() ExecuteResponse { return ExecuteResponse{} },
			func() ExecuteResponse {
				return ExecuteResponse{Shard: 3, Row: RowData{N: 7, Words: []string{"0x1"}}, Values: Lanes{9}}
			},
		} {
			got, want := fill(), fill()
			gotErr := decodeReply(data, &got)
			wantErr := decode(&want)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\n got %#v, err %v\nwant %#v, err %v", data, got, gotErr, want, wantErr)
			}
		}
	})
}

// FuzzDecodeRequest: any /v1/execute or /v1/batch body either fails
// with a 4xx error of the bad-request, lane-overflow or too-large
// family, or lowers to well-formed memory requests. It never panics
// and never maps to a 500. Every body also runs through the handler of
// a fresh server, with no socket, beside a mirror memory: a body the
// decoder or the lowering turns down is answered 4xx, and a body
// answered 4xx leaves the shard's ledger as it was. An accepted body's
// requests run on the mirror too, and the reply carries the mirror's
// rows and errors, with both ledgers equal after.
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
		`{"op":"read","src":{"tile":1}}garbage`,
		`{"op":"read","src":{"tile":1}}{"op":"read","src":{"tile":1}}`,
		`{"op":"read","src":{"tile":1}} [1,2`,
		`{"op": `, `null`, ``,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	seeds := []struct {
		at   Addr
		vals []uint64
	}{{a, []uint64{3, 250, 7, 9, 11, 13, 15, 17}}, {b, []uint64{10, 20, 30, 40, 50, 60, 70, 80}}}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		srv, err := NewServer(Config{Device: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Drain()
		mirror, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shardMem := srv.Pool().Shard(0)
		for _, sr := range seeds {
			row := pim.MustPackLanes(sr.vals, 8, cfg.Geometry.TrackWidth)
			if shardMem.WriteRow(sr.at.isa(), row) != nil || mirror.WriteRow(sr.at.isa(), row) != nil {
				t.Fatal("seeding rows failed")
			}
		}
		var er ExecuteRequest
		var br BatchRequest
		dst, path, limit := any(&er), PathExecute, executeLimit
		if batch {
			dst, path, limit = &br, PathBatch, batchLimit
		}
		stats := shardMem.Stats()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 && shardMem.Stats() != stats {
			t.Fatalf("%q: answered %d, yet moved the shard's ledger: %v -> %v", body, rec.Code, stats, shardMem.Stats())
		}
		// rejected requires the handler's answer to a body the decoder
		// or the lowering turned down with err: that same 4xx.
		rejected := func(err error) {
			status, we := encodeError(err, 0)
			if status < 400 || status >= 500 ||
				!(errors.Is(err, ErrBadRequest) || errors.Is(err, pim.ErrLaneOverflow) || errors.Is(err, ErrTooLarge)) {
				t.Fatalf("%q: %v maps to %d %q", body, err, status, we.Code)
			}
			if rec.Code != status {
				t.Fatalf("%q: %v, yet the handler answered %d %s", body, err, rec.Code, rec.Body)
			}
		}

		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err := decodeBody(httptest.NewRecorder(), r, dst, limit); err != nil {
			rejected(err)
			return
		}
		reqs, tenant, explicit := br.Requests, br.Tenant, br.Shard
		if !batch {
			reqs, tenant, explicit = []Request{er.Request}, er.Tenant, er.Shard
		}
		mreqs := make([]memory.Request, 0, len(reqs))
		var lowerErr error // the first item's that fails, which the handler answers
		for _, q := range reqs {
			mr, err := q.toMemory(cfg, pim.PackLanes)
			if err != nil {
				rejected(err)
				if lowerErr == nil {
					lowerErr = err
				}
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
			mreqs = append(mreqs, mr)
		}
		if lowerErr != nil {
			return
		}
		if _, err := srv.shardFor(explicit, tenant); err != nil {
			rejected(err)
			return
		}
		if batch && len(reqs) == 0 {
			rejected(ErrBadRequest)
			return
		}

		results := mirror.ExecuteBatch(mreqs)
		// same checks one outcome against the mirror's result.
		same := func(k int, row *RowData, vals Lanes, we *WireError) {
			want := results[k]
			if want.Err != nil {
				if _, wantWE := encodeError(want.Err, 0); we == nil || *we != wantWE {
					t.Fatalf("%q: request %d answered %+v, mirror failed with %+v", body, k, we, wantWE)
				}
				return
			}
			var wantVals []uint64
			if bs := reqs[k].Blocksize; bs > 0 {
				wantVals = pim.UnpackLanes(want.Row, bs)
			}
			if we != nil || row == nil || !reflect.DeepEqual(*row, NewRowData(want.Row)) || !slices.Equal(vals, wantVals) {
				t.Fatalf("%q: request %d answered row %+v values %v error %+v, mirror row %+v values %v",
					body, k, row, vals, we, NewRowData(want.Row), wantVals)
			}
		}
		switch {
		case batch:
			var resp BatchResponse
			if rec.Code != http.StatusOK || decodeReply(rec.Body.Bytes(), &resp) != nil || len(resp.Results) != len(results) {
				t.Fatalf("%q: answered %d %s, mirror ran %d requests", body, rec.Code, rec.Body, len(results))
			}
			for k, it := range resp.Results {
				same(k, it.Row, it.Values, it.Error)
			}
		case rec.Code == http.StatusOK:
			var resp ExecuteResponse
			if err := decodeReply(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: reply %s: %v", body, rec.Body, err)
			}
			same(0, &resp.Row, resp.Values, nil)
		default:
			var env errorEnvelope
			if err := decodeReply(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%q: reply %s: %v", body, rec.Body, err)
			}
			if status, _ := encodeError(results[0].Err, 0); rec.Code != status {
				t.Fatalf("%q: answered %d, mirror's error %v maps to %d", body, rec.Code, results[0].Err, status)
			}
			same(0, nil, nil, &env.Error)
		}
		if got, want := shardMem.Stats(), mirror.Stats(); got != want {
			t.Fatalf("%q: shard ledger %v, mirror %v", body, got, want)
		}
	})
}
