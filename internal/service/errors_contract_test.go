package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		Operands: []Addr{{Bank: 2, Tile: 1}}, Dst: &Addr{Tile: 2},
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
