// Package service is the PIM-as-a-service front end: the versioned
// HTTP/JSON request schema, the coruscantd server that owns a
// memory.Pool of shards behind admission control, per-tenant quotas,
// request coalescing and graceful drain, and the typed client that
// maps the wire error envelope back onto the façade's sentinel error
// taxonomy.
//
// # Wire schema and versioning policy
//
// Every endpoint lives under a version prefix (/v1/execute, /v1/batch,
// /v1/compile, /v1/health, /v1/metrics). Within a version the schema
// only grows: new optional request fields and new response fields are
// backwards compatible; renaming or re-typing a field, changing an
// error code, or changing a status mapping is a breaking change and
// bumps the prefix to /v2 (serving /v1 beside it until retired).
// Unknown request fields are rejected (DisallowUnknownFields), so a
// client built against a newer minor schema fails loudly against an
// older server instead of being silently misread.
//
// RowData ({"n", "words"}) and lane arrays (Lanes, the "values" fields)
// are closed value types within v1: they never grow fields, and the
// strict-schema rule reaches into them (an unknown key inside a nested
// "row" is a 400). Their decoders take a fast path on the canonical
// spelling the server writes and fall back to strict encoding/json on
// any other, so both paths accept exactly the same documents.
//
// Failures are reported through a stable error envelope:
//
//	{"error": {"code": "cross_dbc", "message": "...", "retry_after_ms": 0}}
//
// The code set is part of the API contract (see errors.go): each code
// maps 1:1 onto one exported sentinel of the façade taxonomy, so a
// client-side errors.Is works across the wire exactly as it does
// in-process. Unrecognized internal errors map to code "internal" and
// status 500 with a generic message — internals never leak.
package service

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
)

// APIVersion is the served wire-schema version.
const APIVersion = "v1"

// Endpoint paths of the current schema version.
const (
	PathExecute = "/v1/execute"
	PathBatch   = "/v1/batch"
	PathCompile = "/v1/compile"
	PathHealth  = "/v1/health"
	PathMetrics = "/v1/metrics"
)

// Addr locates a row in a shard's memory hierarchy — the wire form of
// isa.Addr, with stable lowercase field names.
type Addr struct {
	Bank     int `json:"bank"`
	Subarray int `json:"subarray"`
	Tile     int `json:"tile"`
	DBC      int `json:"dbc"`
	Row      int `json:"row"`
}

func (a Addr) isa() isa.Addr {
	return isa.Addr{Bank: a.Bank, Subarray: a.Subarray, Tile: a.Tile, DBC: a.DBC, Row: a.Row}
}

func wireAddr(a isa.Addr) Addr {
	return Addr{Bank: a.Bank, Subarray: a.Subarray, Tile: a.Tile, DBC: a.DBC, Row: a.Row}
}

// RowData is a row bit vector on the wire: n wires packed
// little-endian into 64-bit words, each word a hex string (JSON
// numbers cannot carry 64 bits losslessly).
type RowData struct {
	N     int      `json:"n"`
	Words []string `json:"words"`
}

func (rd RowData) row() (dbc.Row, error) {
	if rd.N < 0 || len(rd.Words) != (rd.N+63)/64 {
		return dbc.Row{}, fmt.Errorf("row of %d wires wants %d words, got %d",
			rd.N, (rd.N+63)/64, len(rd.Words))
	}
	words := make([]uint64, len(rd.Words))
	for i, s := range rd.Words {
		w, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
		if err != nil {
			return dbc.Row{}, fmt.Errorf("row word %d: %v", i, err)
		}
		words[i] = w
	}
	r := dbc.Row{N: rd.N, Words: words}
	r.MaskTail()
	return r, nil
}

// Request is one operation of an execute or batch call. Op selects the
// shape:
//
//   - a cpim mnemonic ("add", "mult", "max", "relu", "vote", "div",
//     "mod", "shl", "shr", "fma", "and", "or", "nand", "nor", "xor",
//     "xnor", "not") executes in the PIM-enabled DBC at Src, reading
//     Operands and writing the result row to Dst;
//   - "write" stores Row (or Values packed into Blocksize-bit lanes)
//     at Dst;
//   - "copy" moves the row at Src to Dst over the bank row buffer;
//   - "read" returns the row at Src.
type Request struct {
	Op        string   `json:"op"`
	Src       *Addr    `json:"src,omitempty"`
	Operands  []Addr   `json:"operands,omitempty"`
	Dst       *Addr    `json:"dst,omitempty"`
	Blocksize int      `json:"blocksize,omitempty"`
	Imm       int      `json:"imm,omitempty"`
	Row       *RowData `json:"row,omitempty"`
	// Values is the write payload as lane values: packed into
	// Blocksize-bit lanes across the track (pim.PackLanes). Ignored
	// when Row is set.
	Values Lanes `json:"values,omitempty"`
}

// toMemory lowers a wire request onto the memory batch request it
// means. Validation beyond shape (geometry, bank-staging, lane
// overflow) happens inside the memory layer, so the service maps its
// sentinel taxonomy rather than duplicating it.
func (r Request) toMemory(cfg params.Config, pack func([]uint64, int, int) (dbc.Row, error)) (memory.Request, error) {
	switch r.Op {
	case "":
		return memory.Request{}, fmt.Errorf("%w: missing op", ErrBadRequest)
	case "write":
		if r.Dst == nil {
			return memory.Request{}, fmt.Errorf("%w: write needs dst", ErrBadRequest)
		}
		var row dbc.Row
		var err error
		switch {
		case r.Row != nil:
			row, err = r.Row.row()
			if err != nil {
				return memory.Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		case r.Values != nil:
			if r.Blocksize <= 0 {
				return memory.Request{}, fmt.Errorf("%w: write values need a blocksize", ErrBadRequest)
			}
			row, err = pack(r.Values, r.Blocksize, cfg.Geometry.TrackWidth)
			if err != nil {
				return memory.Request{}, err // carries ErrLaneOverflow
			}
		default:
			return memory.Request{}, fmt.Errorf("%w: write needs row or values", ErrBadRequest)
		}
		return memory.Request{Kind: memory.KindWrite, Dst: r.Dst.isa(), Row: row}, nil
	case "copy":
		if r.Src == nil || r.Dst == nil {
			return memory.Request{}, fmt.Errorf("%w: copy needs src and dst", ErrBadRequest)
		}
		return memory.Request{Kind: memory.KindCopy, Src: r.Src.isa(), Dst: r.Dst.isa()}, nil
	case "read":
		if r.Src == nil {
			return memory.Request{}, fmt.Errorf("%w: read needs src", ErrBadRequest)
		}
		return memory.Request{Kind: memory.KindRead, Src: r.Src.isa()}, nil
	}
	op, ok := isa.OpByName(r.Op)
	if !ok {
		return memory.Request{}, fmt.Errorf("%w: unknown op %q", ErrBadRequest, r.Op)
	}
	if r.Src == nil || r.Dst == nil {
		return memory.Request{}, fmt.Errorf("%w: %s needs src and dst", ErrBadRequest, r.Op)
	}
	operands := make([]isa.Addr, len(r.Operands))
	for i, a := range r.Operands {
		operands[i] = a.isa()
	}
	return memory.Request{
		Kind: memory.KindExec,
		In: isa.Instruction{
			Op: op, Src: r.Src.isa(), Blocksize: r.Blocksize,
			Operands: len(operands), Imm: r.Imm,
		},
		Operands: operands,
		Dst:      r.Dst.isa(),
	}, nil
}

// ExecuteRequest is the /v1/execute body: one Request, routed by
// explicit shard id when set, else by tenant hash.
type ExecuteRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Shard  *int   `json:"shard,omitempty"`
	Request
}

// ExecuteResponse is the /v1/execute reply.
type ExecuteResponse struct {
	Shard int     `json:"shard"`
	Row   RowData `json:"row"`
	// Values is Row unpacked into Blocksize-bit lanes, echoed when the
	// request carried a blocksize.
	Values Lanes `json:"values,omitempty"`
}

// BatchRequest is the /v1/batch body: the requests execute on one
// shard with the memory layer's batch semantics — requests with
// overlapping DBC footprints keep program order, disjoint ones run
// bank-parallel, and the outcome is bit-identical to running them
// serially in order.
type BatchRequest struct {
	Tenant   string    `json:"tenant,omitempty"`
	Shard    *int      `json:"shard,omitempty"`
	Requests []Request `json:"requests"`
}

// BatchItem is one positional outcome of a batch.
type BatchItem struct {
	Row    *RowData   `json:"row,omitempty"`
	Values Lanes      `json:"values,omitempty"`
	Error  *WireError `json:"error,omitempty"`
}

// Err returns the item's failure decoded to the sentinel taxonomy
// (nil on success). errors.Is works against the façade sentinels.
func (it BatchItem) Err() error {
	if it.Error == nil {
		return nil
	}
	return it.Error.decode(0)
}

// BatchResponse is the /v1/batch reply; Results are positional.
type BatchResponse struct {
	Shard   int         `json:"shard"`
	Results []BatchItem `json:"results"`
}

// CompileRequest is the /v1/compile body: a pimasm program compiled at
// the given optimization level and executed on one shard. Loads read
// the shard's current rows; Outputs return the stored result rows.
type CompileRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Shard  *int   `json:"shard,omitempty"`
	Source string `json:"source"`
	Level  int    `json:"level"`
}

// CompileOutput is one stored result of a compiled program.
type CompileOutput struct {
	Name      string  `json:"name"`
	Addr      Addr    `json:"addr"`
	Blocksize int     `json:"blocksize,omitempty"`
	Row       RowData `json:"row"`
	Values    Lanes   `json:"values,omitempty"`
}

// CompileResponse is the /v1/compile reply.
type CompileResponse struct {
	Shard    int             `json:"shard"`
	Outputs  []CompileOutput `json:"outputs"`
	Makespan uint64          `json:"makespan_cycles"`
	Cycles   uint64          `json:"cycles"`
}

// GeometrySummary carries the shard configuration a client needs to
// form addresses: the hierarchy bounds and the PIM-enablement rule
// (§III-A: in each of the first PIMTilesPerSub tiles, the last
// PIMDBCsPerTile DBCs execute in place).
type GeometrySummary struct {
	Banks            int `json:"banks"`
	SubarraysPerBank int `json:"subarrays_per_bank"`
	TilesPerSubarray int `json:"tiles_per_subarray"`
	DBCsPerTile      int `json:"dbcs_per_tile"`
	PIMDBCsPerTile   int `json:"pim_dbcs_per_tile"`
	PIMTilesPerSub   int `json:"pim_tiles_per_sub"`
	TrackWidth       int `json:"track_width"`
	RowsPerDBC       int `json:"rows_per_dbc"`
}

// Counters is the service-level accounting exposed by /v1/health and
// /v1/metrics. Accepted counts admissions into a shard queue; every
// accepted request is eventually Completed — including through a
// graceful drain — so Accepted == Completed once the server is idle
// or drained.
type Counters struct {
	Accepted          uint64 `json:"accepted"`
	Completed         uint64 `json:"completed"`
	RejectedQuota     uint64 `json:"rejected_quota"`
	RejectedOverload  uint64 `json:"rejected_overload"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	CoalescedWindows  uint64 `json:"coalesced_windows"`
	CoalescedRequests uint64 `json:"coalesced_requests"`
}

// HealthResponse is the /v1/health reply.
type HealthResponse struct {
	Status   string          `json:"status"` // "ok" | "draining"
	Version  string          `json:"version"`
	Shards   int             `json:"shards"`
	Geometry GeometrySummary `json:"geometry"`
	Counters Counters        `json:"counters"`
}
