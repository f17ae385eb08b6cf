package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// Client is the typed client of the v1 API. Errors decoded from the
// wire envelope carry their sentinel: errors.Is(err, memory.ErrCrossDBC)
// (and every other taxonomy sentinel) works across the wire.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for a coruscantd at base
// (e.g. "http://localhost:7917"). httpc nil uses http.DefaultClient.
func NewClient(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{base: base, http: httpc}
}

// post sends body to path and decodes a 200 reply into out, or returns
// the decoded *APIError.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("service: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header["Content-Type"] = jsonContentType
	reply := getBody()
	defer putBody(reply)
	if err := c.do(req, reply); err != nil {
		return err
	}
	return decodeReply(reply.Bytes(), out)
}

// get fetches path and returns its 200 reply body, or the decoded
// *APIError.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	var reply bytes.Buffer
	if err := c.do(req, &reply); err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// do sends req and reads its whole reply into buf. Any status but 200
// comes back as an *APIError: the one its error envelope names, or code
// "internal" when the reply carries no envelope.
func (c *Client) do(req *http.Request, buf *bytes.Buffer) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if decodeReply(buf.Bytes(), &env) != nil || env.Error.Code == "" {
			return &APIError{Status: resp.StatusCode, Code: "internal",
				Message: fmt.Sprintf("undecodable %d reply", resp.StatusCode)}
		}
		return env.Error.decode(resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("service: read reply: %w", err)
	}
	return nil
}

// Execute runs one request.
func (c *Client) Execute(ctx context.Context, req ExecuteRequest) (*ExecuteResponse, error) {
	var out ExecuteResponse
	if err := c.post(ctx, PathExecute, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch runs a batch on one shard; per-item failures land in the
// items (BatchItem.Err), not in the call error.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.post(ctx, PathBatch, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Compile compiles and executes a pimasm program on one shard.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	var out CompileResponse
	if err := c.post(ctx, PathCompile, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the server status and geometry.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	body, err := c.get(ctx, PathHealth)
	if err != nil {
		return nil, err
	}
	var out HealthResponse
	if err := decodeReply(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus exposition page.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.get(ctx, PathMetrics)
}
