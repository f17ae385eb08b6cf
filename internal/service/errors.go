package service

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// Service-level sentinels: failures of the front end itself, as
// opposed to failures of the racetrack underneath. They join the
// façade taxonomy and round-trip through the wire envelope like the
// hardware sentinels do.
var (
	// ErrBadRequest marks a request the schema rejects before it
	// reaches a shard: malformed JSON, unknown op, missing fields.
	ErrBadRequest = errors.New("service: malformed request")
	// ErrQuota marks a request rejected by the tenant's token bucket.
	ErrQuota = errors.New("service: tenant quota exhausted")
	// ErrOverloaded marks a request rejected by admission control: the
	// target shard's queue is full. Clients should back off for the
	// envelope's retry_after_ms and retry.
	ErrOverloaded = errors.New("service: shard queue full")
	// ErrDraining marks a request arriving after graceful drain began;
	// the server finishes accepted work but admits nothing new.
	ErrDraining = errors.New("service: server draining")
	// ErrTooLarge marks a request whose body exceeds its endpoint's
	// size limit — the server stops reading it at the limit — or a
	// compile request whose program exceeds compile.MaxStatements or
	// whose plan is predicted to run past maxPlanCycles.
	ErrTooLarge = errors.New("service: request body too large")
)

// WireError is the stable error envelope every non-2xx response (and
// every failed batch item) carries. Code is the contract; Message is
// advisory human text and may change between releases.
type WireError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
}

// errorEnvelope is the non-2xx response body: {"error": {...}}.
type errorEnvelope struct {
	Error WireError `json:"error"`
}

// codings is the API error contract: one row per wire code, mapping a
// sentinel of the error taxonomy to its code and HTTP status. The
// table is ordered — the first sentinel that errors.Is-matches wins —
// and append-only within a schema version.
var codings = []struct {
	code     string
	sentinel error
	status   int
}{
	{"bad_request", ErrBadRequest, http.StatusBadRequest},
	{"bad_trd", params.ErrBadTRD, http.StatusBadRequest},
	{"lane_overflow", pim.ErrLaneOverflow, http.StatusBadRequest},
	{"shift_amount", pim.ErrShiftAmount, http.StatusBadRequest},
	{"cross_dbc", memory.ErrCrossDBC, http.StatusUnprocessableEntity},
	{"quarantined", memory.ErrQuarantined, http.StatusServiceUnavailable},
	{"unverified", resilient.ErrUnverified, http.StatusBadGateway},
	{"quota_exhausted", ErrQuota, http.StatusTooManyRequests},
	{"overloaded", ErrOverloaded, http.StatusTooManyRequests},
	{"draining", ErrDraining, http.StatusServiceUnavailable},
	{"too_large", ErrTooLarge, http.StatusRequestEntityTooLarge},
	{"invalid_request", memory.ErrInvalidRequest, http.StatusBadRequest},
}

// encodeError maps an error onto (status, envelope). Errors outside
// the contract table become code "internal" with a generic message —
// the error text stays server-side, internals never leak onto the
// wire.
func encodeError(err error, retryAfterMS int) (int, WireError) {
	for _, c := range codings {
		if errors.Is(err, c.sentinel) {
			return c.status, WireError{Code: c.code, Message: err.Error(), RetryAfterMS: retryAfterMS}
		}
	}
	return http.StatusInternalServerError, WireError{Code: "internal", Message: "internal error"}
}

// APIError is a client-side decoded wire error. It unwraps to the
// sentinel its code names, so errors.Is(err, memory.ErrCrossDBC) holds
// across the wire exactly as in-process.
type APIError struct {
	Status       int // HTTP status, 0 for batch-item errors
	Code         string
	Message      string
	RetryAfterMS int
	sentinel     error
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %s: %s", e.Code, e.Message)
}

// Unwrap exposes the sentinel behind the wire code (nil for codes the
// client does not know, e.g. "internal" or a future version's code).
func (e *APIError) Unwrap() error { return e.sentinel }

// decode turns a wire envelope back into an error carrying its
// sentinel.
func (we WireError) decode(status int) error {
	ae := &APIError{
		Status:       status,
		Code:         we.Code,
		Message:      we.Message,
		RetryAfterMS: we.RetryAfterMS,
	}
	for _, c := range codings {
		if c.code == we.Code {
			ae.sentinel = c.sentinel
			break
		}
	}
	return ae
}
