// The listening side of the binary fast path: a BinServer keys each
// connection with one handshake (SessionAuth: signed, or anonymous in
// open mode), then serves MAC'd request frames against a path-prefix
// route table. The routes are the same faces the HTTP mux serves —
// /uddi, /peer, /services/ — and carry each operation in its native
// binary encoding: a request framed here and its XML twin POSTed over
// SOAP/HTTP reach identical application logic. XML documents never ride
// these frames; a face refuses any content type it has no native
// decoder for.
//
// Routes see the session's peer as caller: a verified home on a signed
// session, "" on an anonymous one. The server only dispatches anonymous
// requests while its provider runs open (see Session.stale), so a face
// may read caller "" as "open mode, nothing to enforce" — the same
// reading identity.Require gives an unsigned HTTP request.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// BinRequest is one framed request as a route handler sees it.
type BinRequest struct {
	// Path is the request path, e.g. "/uddi" or "/services/x10:lamp-1".
	Path string
	// ContentType names Body's native encoding: uddi.BinContentType
	// for registry records, soap.BinCallContentType for calls.
	ContentType string
	// Action carries the SOAPAction equivalent, when the face uses one.
	Action string
	// Body is the request payload.
	Body []byte
}

// BinResponse is a route handler's reply.
type BinResponse struct {
	// Status is the HTTP status the equivalent SOAP/HTTP response would
	// carry, so both paths classify outcomes identically.
	Status      int
	ContentType string
	Body        []byte
}

// BinHandler serves framed requests for one path prefix. caller is the
// session-authenticated remote home — the same principal the per-op
// signature middleware would have established.
type BinHandler interface {
	ServeBin(ctx context.Context, caller string, req *BinRequest) *BinResponse
}

// BinHandlerFunc adapts a function to BinHandler.
type BinHandlerFunc func(ctx context.Context, caller string, req *BinRequest) *BinResponse

// ServeBin implements BinHandler.
func (f BinHandlerFunc) ServeBin(ctx context.Context, caller string, req *BinRequest) *BinResponse {
	return f(ctx, caller, req)
}

// errSessionExpired marks a request arriving on a session whose lifetime
// has elapsed; the dialer answers it by rekeying in place.
var errSessionExpired = errors.New("transport: session expired")

// BinServer is one endpoint's binary-protocol face.
type BinServer struct {
	auth SessionAuth
	// nowFn is the clock; tests override it to force expiry.
	nowFn func() time.Time

	mu       sync.Mutex
	routes   map[string]BinHandler
	conns    map[net.Conn]struct{}
	closed   bool
	disabled bool
}

// NewBinServer builds a server over the given handshake provider; nil
// means Anonymous, the face of an endpoint with no credentials.
func NewBinServer(auth SessionAuth) *BinServer {
	if auth == nil {
		auth = Anonymous
	}
	return &BinServer{
		auth:   auth,
		nowFn:  time.Now,
		routes: make(map[string]BinHandler),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Handle mounts h at a path prefix. Longest prefix wins at dispatch.
func (s *BinServer) Handle(prefix string, h BinHandler) {
	s.mu.Lock()
	s.routes[prefix] = h
	s.mu.Unlock()
}

// SetEnabled turns handshake acceptance on or off. A disabled server
// refuses every hello, so dialing peers degrade to SOAP/HTTP — this is
// how a SOAP-only home participates in a mixed-mode federation while
// still listening on the same port.
func (s *BinServer) SetEnabled(on bool) {
	s.mu.Lock()
	s.disabled = !on
	s.mu.Unlock()
}

// setClock overrides the expiry clock (tests).
func (s *BinServer) setClock(now func() time.Time) { s.nowFn = now }

// route finds the longest-prefix handler for a path.
func (s *BinServer) route(path string) BinHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best BinHandler
	bestLen := -1
	for prefix, h := range s.routes {
		if strings.HasPrefix(path, prefix) && len(prefix) > bestLen {
			best, bestLen = h, len(prefix)
		}
	}
	return best
}

// dispatch runs one authenticated request through the route table.
func (s *BinServer) dispatch(ctx context.Context, caller string, q *BinRequest) *BinResponse {
	h := s.route(q.Path)
	if h == nil {
		return &BinResponse{Status: 404, ContentType: "text/plain",
			Body: []byte("transport: no binary face at " + q.Path)}
	}
	resp := h.ServeBin(ctx, caller, q)
	if resp == nil {
		resp = &BinResponse{Status: 500, ContentType: "text/plain",
			Body: []byte("transport: empty binary response")}
	}
	return resp
}

// acceptLocal runs the listener half of a handshake for an in-process
// lane (see RegisterLocal): real hello/accept blobs, no socket.
func (s *BinServer) acceptLocal(hello []byte) (accept []byte, sess *Session, err error) {
	s.mu.Lock()
	closed, disabled := s.closed, s.disabled
	s.mu.Unlock()
	if closed {
		return nil, nil, fmt.Errorf("transport: binary server closed")
	}
	if disabled {
		return nil, nil, fmt.Errorf("transport: binary protocol disabled on this endpoint")
	}
	return s.auth.AcceptSession(hello)
}

// handleRequest serves one MAC'd 'Q' payload against sess, appending the
// 'S' payload to dst (a caller-owned scratch buffer reused across
// frames). An error poisons the lane: stale sessions — expired, or
// anonymous on a server that has since gained an identity — surface
// errSessionExpired (the dialer rekeys, or falls back when its new hello
// is refused), anything else means the frame failed verification and
// the connection cannot be trusted further.
func (s *BinServer) handleRequest(ctx context.Context, sess *Session, payload, dst []byte) ([]byte, error) {
	if sess.stale(s.auth, s.nowFn()) {
		return nil, errSessionExpired
	}
	q, err := decodeRequest(sess, payload)
	if err != nil {
		return nil, err
	}
	resp := s.dispatch(ctx, sess.Peer, &BinRequest{
		Path: q.Path, ContentType: q.ContentType, Action: q.Action, Body: q.Body,
	})
	return encodeResponse(dst, sess, q.Ctr, resp.Status, resp.ContentType, resp.Body), nil
}

// ServeConn runs the frame loop for one accepted binary connection; the
// BinMagic preamble has already been consumed by the demultiplexer. The
// first frame must be a hello; a hello arriving later rekeys the session
// in place.
func (s *BinServer) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	c := &srvConn{conn: conn}
	defer func() {
		if c.sess != nil {
			s.auth.NoteSessionEnd(c.sess, false)
		}
	}()
	ctx := context.Background()
	for s.serveFrame(ctx, c) {
	}
}

// srvConn is one accepted connection's frame-loop state.
type srvConn struct {
	conn net.Conn
	rd   *bufio.Reader // frames are read through it (see frameReadBuf)
	sess *Session
	// buf holds incoming frames, out the encoded response payload, fbuf
	// the framed response, each reused across frames (see
	// maxIdleFrameBuf).
	buf, out, fbuf []byte
}

// serveFrame reads and answers one frame, reporting whether the
// connection stays up.
func (s *BinServer) serveFrame(ctx context.Context, c *srvConn) bool {
	defer c.releaseBuffers()
	payload, nbuf, err := readFrame(frameReader(&c.rd, c.conn), c.buf)
	if err != nil {
		return false
	}
	c.buf = nbuf
	if len(payload) == 0 {
		return false
	}
	conn := c.conn
	switch payload[0] {
	case opHello:
		blob, err := decodeBlob(payload)
		if err != nil {
			writeFrame(conn, encodeError(binErrBad, err.Error()))
			return false
		}
		s.mu.Lock()
		disabled := s.disabled
		s.mu.Unlock()
		if disabled {
			writeFrame(conn, encodeError(binErrRefused, "transport: binary protocol disabled on this endpoint"))
			return false
		}
		accept, next, err := s.auth.AcceptSession(blob)
		if err != nil {
			writeFrame(conn, encodeError(binErrRefused, err.Error()))
			return false
		}
		if c.sess != nil {
			s.auth.NoteSessionEnd(c.sess, true)
		}
		c.sess = next
		return writeFrame(conn, encodeAccept(accept)) == nil
	case opRequest:
		if c.sess == nil {
			writeFrame(conn, encodeError(binErrBad, "request before handshake"))
			return false
		}
		var err error
		c.out, err = s.handleRequest(ctx, c.sess, payload, c.out[:0])
		switch {
		case errors.Is(err, errSessionExpired):
			// Tell the dialer to rekey; the connection stays up.
			return writeFrame(conn, encodeError(binErrExpired, "session expired; rekey")) == nil
		case err != nil:
			writeFrame(conn, encodeError(binErrBad, err.Error()))
			return false
		}
		c.fbuf = appendFrame(c.fbuf[:0], c.out)
		_, err = conn.Write(c.fbuf)
		return err == nil
	default:
		writeFrame(conn, encodeError(binErrBad, fmt.Sprintf("unexpected op %q", payload[0])))
		return false
	}
}

// releaseBuffers drops any frame buffer that outgrew its last frame past
// maxIdleFrameBuf, so a connection does not pin its largest frame.
func (c *srvConn) releaseBuffers() {
	c.buf, c.out, c.fbuf = trimFrameBuf(c.buf), trimFrameBuf(c.out), trimFrameBuf(c.fbuf)
}

// Close shuts the server: open connections are closed and new ones
// refused. Registered local lanes fail their next exchange and fall back
// to SOAP.
func (s *BinServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
