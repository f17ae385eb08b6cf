package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// TestErrorContractRoundTrip is the API error contract: every exported
// sentinel of the taxonomy encodes to its documented (code, status)
// and — decoded client-side from the envelope — still satisfies
// errors.Is against the original sentinel.
func TestErrorContractRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
		code     string
		status   int
	}{
		{ErrBadRequest, "bad_request", http.StatusBadRequest},
		{params.ErrBadTRD, "bad_trd", http.StatusBadRequest},
		{pim.ErrLaneOverflow, "lane_overflow", http.StatusBadRequest},
		{pim.ErrShiftAmount, "shift_amount", http.StatusBadRequest},
		{memory.ErrCrossDBC, "cross_dbc", http.StatusUnprocessableEntity},
		{memory.ErrQuarantined, "quarantined", http.StatusServiceUnavailable},
		{resilient.ErrUnverified, "unverified", http.StatusBadGateway},
		{ErrQuota, "quota_exhausted", http.StatusTooManyRequests},
		{ErrOverloaded, "overloaded", http.StatusTooManyRequests},
		{ErrDraining, "draining", http.StatusServiceUnavailable},
		{ErrTooLarge, "too_large", http.StatusRequestEntityTooLarge},
		{memory.ErrInvalidRequest, "invalid_request", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.code, func(t *testing.T) {
			// Wrapped the way handlers produce them.
			wrapped := errors.Join(errors.New("context"), c.sentinel)
			status, we := encodeError(wrapped, 0)
			if status != c.status || we.Code != c.code {
				t.Fatalf("encode = (%d, %q), want (%d, %q)", status, we.Code, c.status, c.code)
			}
			// Serialize through the literal envelope JSON, as the wire does.
			raw, err := json.Marshal(errorEnvelope{Error: we})
			if err != nil {
				t.Fatal(err)
			}
			var env errorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			decoded := env.Error.decode(status)
			if !errors.Is(decoded, c.sentinel) {
				t.Fatalf("decoded %v does not errors.Is its sentinel", decoded)
			}
			var ae *APIError
			if !errors.As(decoded, &ae) || ae.Status != status || ae.Code != c.code {
				t.Fatalf("decoded APIError = %+v", ae)
			}
		})
	}
}

// TestErrorContractOverWire drives a representative subset end to end
// through real handlers and the real client, so the contract holds on
// the wire and not just in the codec.
func TestErrorContractOverWire(t *testing.T) {
	srv, api := startServer(t, Config{Shards: 1, QuotaRate: 0.001, QuotaBurst: 1})
	ctx := context.Background()
	shard := 0

	// cross_dbc: operand in a different bank than the executing DBC.
	// (Distinct tenants per probe — the quota config below is per
	// tenant, burst 1.)
	_, err := api.Execute(ctx, ExecuteRequest{Tenant: "t-cross", Shard: &shard, Request: Request{
		Op: "add", Src: &Addr{Tile: 0, DBC: 15}, Blocksize: 8,
		Operands: []Addr{{Tile: 1}, {Bank: 2, Tile: 1}}, Dst: &Addr{Tile: 2},
	}})
	if !errors.Is(err, memory.ErrCrossDBC) {
		t.Fatalf("cross-bank operand err = %v, want ErrCrossDBC", err)
	}

	// lane_overflow: a write whose values exceed the lane width.
	_, err = api.Execute(ctx, ExecuteRequest{Tenant: "t-overflow", Shard: &shard, Request: Request{
		Op: "write", Dst: &Addr{Tile: 1}, Blocksize: 8, Values: []uint64{1 << 20},
	}})
	if !errors.Is(err, pim.ErrLaneOverflow) {
		t.Fatalf("overflow write err = %v, want ErrLaneOverflow", err)
	}

	// invalid_request: a request the memory rejects at planning.
	_, err = api.Execute(ctx, ExecuteRequest{Tenant: "t-invalid", Shard: &shard, Request: Request{
		Op: "add", Src: &Addr{Tile: 0, DBC: 15}, Blocksize: 7,
		Operands: []Addr{{Tile: 1}, {Tile: 1, Row: 1}}, Dst: &Addr{Tile: 2},
	}})
	var invalid *APIError
	if !errors.Is(err, memory.ErrInvalidRequest) || !errors.As(err, &invalid) || invalid.Status != http.StatusBadRequest {
		t.Fatalf("blocksize 7 err = %v, want ErrInvalidRequest with status 400", err)
	}

	// bad_request: malformed JSON and unknown fields both reject.
	resp, err := http.Post(api.base+PathExecute, "application/json", strings.NewReader(`{"op": `))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(api.base+PathExecute, "application/json", strings.NewReader(`{"op":"read","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status = %d, want 400", resp.StatusCode)
	}

	// too_large: a body past the /v1/execute limit is cut off at the
	// limit and answered 413, through the typed client too.
	executeLimit, _ := bodyLimits(srv.cfg.Device.Geometry.TrackWidth)
	_, err = api.Execute(ctx, ExecuteRequest{Tenant: "t-large", Shard: &shard, Request: Request{
		Op: "write", Dst: &Addr{Tile: 1}, Blocksize: 8, Values: make(Lanes, executeLimit),
	}})
	var tooLarge *APIError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &tooLarge) || tooLarge.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body err = %v, want ErrTooLarge with status 413", err)
	}

	// quota_exhausted: burst 1 at ~0 refill — the second call rejects
	// with Retry-After populated.
	for i := 0; i < 2; i++ {
		_, err = api.Execute(ctx, ExecuteRequest{Tenant: "starved", Shard: &shard,
			Request: Request{Op: "read", Src: &Addr{Tile: 1}}})
	}
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("second call err = %v, want ErrQuota", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfterMS <= 0 {
		t.Fatalf("quota rejection lacks retry hint: %+v", ae)
	}
	if srv.Counters().RejectedQuota == 0 {
		t.Fatal("quota rejection not counted")
	}
}

// TestCompileStatementLimit posts programs at and past the compiler's
// statement limit. A body well under the 1 MiB compile limit can still
// hold a program whose placement would take seconds on its shard, so
// the limit is on statements: one past it is answered 413 too_large,
// and a program at the limit compiles.
func TestCompileStatementLimit(t *testing.T) {
	_, api := startServer(t, Config{Shards: 1})
	ctx := context.Background()
	// n statements: a constant, an xor chain over it, one store.
	program := func(n int) string {
		var b strings.Builder
		b.WriteString("%r0 = li 1 bs=8\n")
		for i := 1; i < n-1; i++ {
			fmt.Fprintf(&b, "%%r%d = xor %%r%d, %%r0 bs=8\n", i, i-1)
		}
		fmt.Fprintf(&b, "store %%r%d, b0.s0.t1.d0.r0\n", n-2)
		return b.String()
	}
	src := program(compile.MaxStatements + 1)
	_, err := api.Compile(ctx, CompileRequest{Source: src})
	var tooLarge *APIError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &tooLarge) || tooLarge.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-statement program (%d bytes) err = %v, want ErrTooLarge with status 413",
			compile.MaxStatements+1, len(src), err)
	}
	if _, err := api.Compile(ctx, CompileRequest{Source: program(compile.MaxStatements)}); err != nil {
		t.Fatalf("%d-statement program: %v", compile.MaxStatements, err)
	}
}

// TestCompileCycleLimit posts a short program whose plan would hold the
// shard for seconds: 64 chained bs=512 divs, 66 lines, which the cost
// model prices at about 34M device cycles. The shard worker rejects it
// before Plan.Run, as 413 too_large, so its store row stays untouched.
func TestCompileCycleLimit(t *testing.T) {
	srv, err := NewServer(Config{Device: params.DefaultConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	api := NewClient(ts.URL, ts.Client())
	var b strings.Builder
	b.WriteString("%v0 = load b0.s0.t1.d0.r0\n")
	for i := 1; i <= 64; i++ {
		fmt.Fprintf(&b, "%%v%d = div %%v%d, %%v0 bs=512\n", i, i-1)
	}
	b.WriteString("store %v64, b0.s0.t1.d0.r1\n")
	src := b.String()
	_, err = api.Compile(context.Background(), CompileRequest{Source: src})
	var tooLarge *APIError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &tooLarge) || tooLarge.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-line div chain err = %v, want ErrTooLarge with status 413", strings.Count(src, "\n"), err)
	}
	row, err := srv.Pool().Shard(0).ReadRow(isa.Addr{Tile: 1, Row: 1})
	if err != nil || row.OnesCount() != 0 {
		t.Errorf("rejected program's store row holds %d set bits (err %v), want untouched", row.OnesCount(), err)
	}
}

// TestMalformedRequestsAre4xx posts requests the memory layer rejects
// at planning and expects a client error for each, never a 500: the
// caller sent something wrong, the server did not fail. Counts the TR
// window cannot take answer bad_trd, a body with more than whitespace
// after its value answers bad_request, a body past its limit answers
// too_large whatever value it starts with, and a rejected request
// leaves the shard's device ledger as it was.
func TestMalformedRequestsAre4xx(t *testing.T) {
	srv, api := startServer(t, Config{Shards: 1})
	executeLimit, _ := bodyLimits(srv.cfg.Device.Geometry.TrackWidth)
	read := `{"op":"read","src":{"tile":1}}`
	for _, c := range []struct{ name, body, code string }{
		{"add with 6 operands", `{"op":"add","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1},{"tile":1,"row":2},{"tile":1,"row":3},{"tile":1,"row":4},{"tile":1,"row":5}],"dst":{"tile":2}}`, "bad_trd"},
		{"vote with 2 operands", `{"op":"vote","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, "bad_trd"},
		{"vote with 4 operands", `{"op":"vote","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1},{"tile":1,"row":2},{"tile":1,"row":3}],"dst":{"tile":2}}`, "bad_trd"},
		{"blocksize 7", `{"op":"add","src":{"dbc":15},"blocksize":7,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, ""},
		{"src row 999", `{"op":"add","src":{"dbc":15,"row":999},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, ""},
		{"non-PIM executing DBC", `{"op":"add","src":{"tile":1},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, ""},
		{"mult with 3 operands", `{"op":"mult","src":{"dbc":15},"blocksize":16,"operands":[{"tile":1},{"tile":1,"row":1},{"tile":1,"row":2}],"dst":{"tile":2}}`, ""},
		{"max with 1 operand", `{"op":"max","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1}],"dst":{"tile":2}}`, ""},
		{"add with 1 operand", `{"op":"add","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1}],"dst":{"tile":2}}`, ""},
		{"not with 2 operands", `{"op":"not","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, ""},
		{"relu with 2 operands", `{"op":"relu","src":{"dbc":15},"blocksize":8,"operands":[{"tile":1},{"tile":1,"row":1}],"dst":{"tile":2}}`, ""},
		{"nop", `{"op":"nop","src":{"dbc":15},"dst":{"tile":2}}`, ""},
		{"read at bank 99", `{"op":"read","src":{"bank":99}}`, ""},
		{"copy to bank 99", `{"op":"copy","src":{"tile":1},"dst":{"bank":99}}`, ""},
		{"garbage after the value", read + `garbage`, "bad_request"},
		{"second object after the value", read + read, "bad_request"},
		{"unclosed array after the value", read + ` [1,2`, "bad_request"},
		{"whitespace past the limit", read + strings.Repeat(" ", int(executeLimit)), "too_large"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stats := srv.Pool().Shard(0).Stats()
			resp, err := http.Post(api.base+PathExecute, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Fatalf("status %d %+v, want 4xx", resp.StatusCode, env.Error)
			}
			if c.code != "" && env.Error.Code != c.code {
				t.Errorf("code %q (%s), want %q", env.Error.Code, env.Error.Message, c.code)
			}
			if got := srv.Pool().Shard(0).Stats(); got != stats {
				t.Errorf("rejected request moved the shard's ledger: %v -> %v", stats, got)
			}
		})
	}
}

// TestUnknownErrorsDoNotLeak: an error outside the contract table maps
// to a 500 with code "internal" and a generic message — the internal
// error text must not cross the wire.
func TestUnknownErrorsDoNotLeak(t *testing.T) {
	secret := errors.New("connstring password=hunter2")
	rec := httptest.NewRecorder()
	writeError(rec, secret, 0)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, "hunter2") || strings.Contains(body, "connstring") {
		t.Fatalf("internal detail leaked: %s", body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "internal" || env.Error.Message != "internal error" {
		t.Fatalf("envelope = %+v", env.Error)
	}
	// Client-side, an unknown code decodes to an APIError with no
	// sentinel — errors.Is matches nothing in the taxonomy.
	decoded := env.Error.decode(rec.Code)
	for _, s := range []error{ErrBadRequest, ErrQuota, ErrOverloaded, ErrDraining, memory.ErrCrossDBC} {
		if errors.Is(decoded, s) {
			t.Fatalf("unknown code spuriously matches %v", s)
		}
	}
}

// TestStrictSchemaNested: the codec fast paths keep the strict schema
// of nested values. An unknown key inside a write's "row" object is
// still a 400, and an empty "values" array is still told apart from an
// absent one.
func TestStrictSchemaNested(t *testing.T) {
	_, api := startServer(t, Config{Shards: 1})
	post := func(body string) (int, WireError) {
		t.Helper()
		resp, err := http.Post(api.base+PathExecute, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env.Error
	}
	status, we := post(`{"op":"write","dst":{"tile":1},"row":{"n":64,"words":["0x1"],"surprise":1}}`)
	if status != http.StatusBadRequest || !strings.Contains(we.Message, "surprise") {
		t.Fatalf("unknown nested row key: %d %+v, want 400 naming the key", status, we)
	}
	for _, c := range []struct{ body, msg string }{
		{`{"op":"write","dst":{"tile":1},"values":[]}`, "write values need a blocksize"},
		{`{"op":"write","dst":{"tile":1}}`, "write needs row or values"},
	} {
		status, we := post(c.body)
		if status != http.StatusBadRequest || !strings.Contains(we.Message, c.msg) {
			t.Fatalf("%s: %d %+v, want 400 %q", c.body, status, we, c.msg)
		}
	}
}

// TestClientGetChecksStatus: Health and Metrics map a reply that is not
// 200 to an *APIError, as Execute does, decoding the error envelope
// when the reply carries one.
func TestClientGetChecksStatus(t *testing.T) {
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, ErrDraining, time.Second)
	}))
	defer draining.Close()
	ctx := context.Background()
	for _, c := range []struct {
		name     string
		ts       *httptest.Server
		status   int
		code     string
		sentinel error
	}{
		{"404 page", notFound, http.StatusNotFound, "internal", nil},
		{"503 envelope", draining, http.StatusServiceUnavailable, "draining", ErrDraining},
	} {
		api := NewClient(c.ts.URL, c.ts.Client())
		health, herr := api.Health(ctx)
		page, merr := api.Metrics(ctx)
		for _, call := range []struct {
			name string
			got  any
			err  error
		}{{"Health", health, herr}, {"Metrics", page, merr}} {
			var ae *APIError
			if !errors.As(call.err, &ae) || ae.Status != c.status || ae.Code != c.code {
				t.Errorf("%s against a %s: err %v, want an *APIError of status %d, code %q", call.name, c.name, call.err, c.status, c.code)
			}
			if c.sentinel != nil && !errors.Is(call.err, c.sentinel) {
				t.Errorf("%s against a %s: err %v does not match %v", call.name, c.name, call.err, c.sentinel)
			}
			if !reflect.ValueOf(call.got).IsNil() {
				t.Errorf("%s against a %s returned %v with its error", call.name, c.name, call.got)
			}
		}
	}
}
