// In-memory HTTP "network": a RoundTripper that routes requests to
// registered http.Handlers by host, with no TCP sockets, goroutines or
// real I/O in the path. This is the dialer seam the neighborhood-scale
// simulation rides: hundreds to thousands of virtual homes serve their
// repository and gateway faces through the real wire codecs — the same
// handlers, XML framing and auth middleware a TCP deployment runs —
// while each round trip is a deterministic, synchronous function call
// on the caller's goroutine.
package transport

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// MemNet is an in-process HTTP network. Register each simulated host's
// root handler with Handle; requests to "http://<host>/..." issued
// through Client (or any http.Client over the MemNet as Transport) are
// served synchronously by that handler.
type MemNet struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{hosts: make(map[string]http.Handler)}
}

// Handle registers (or replaces) the handler serving host. A nil
// handler removes the host — requests to it then fail like a refused
// connection, which is how the simulation models a dead home.
func (m *MemNet) Handle(host string, h http.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h == nil {
		delete(m.hosts, host)
		return
	}
	m.hosts[host] = h
}

// Client returns an http.Client whose round trips ride this network.
func (m *MemNet) Client() *http.Client {
	return &http.Client{Transport: m}
}

// Dialer returns a Dialer whose HTTP path rides this network. Binary
// negotiation stays confined to in-process authorities (RegisterLocal),
// since a memory network has no socket to dial.
func (m *MemNet) Dialer(creds Credentials) *Dialer {
	d := NewDialer(creds)
	d.Transport = m
	return d
}

// RoundTrip implements http.RoundTripper: the request is served
// synchronously by the handler registered for its host.
func (m *MemNet) RoundTrip(req *http.Request) (*http.Response, error) {
	m.mu.RLock()
	h := m.hosts[req.URL.Host]
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("memnet: connect %s: no such host", req.URL.Host)
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := &memResponse{header: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.status),
		StatusCode:    rec.status,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// memResponse is the minimal ResponseWriter behind a mem round trip.
type memResponse struct {
	header      http.Header
	body        bytes.Buffer
	status      int
	wroteHeader bool
}

func (r *memResponse) Header() http.Header { return r.header }

func (r *memResponse) WriteHeader(status int) {
	if r.wroteHeader {
		return
	}
	r.wroteHeader = true
	r.status = status
}

func (r *memResponse) Write(p []byte) (int, error) {
	r.wroteHeader = true
	return r.body.Write(p)
}
