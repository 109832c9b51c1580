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
	// AppendBody, when set, carries the body instead of Body: the
	// listener calls it once to append the body to the reply frame, so a
	// large reply is encoded straight into the link's reused frame buffer
	// rather than into a buffer of its own that is then copied.
	AppendBody func(dst []byte) []byte
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

// BinServer is one endpoint's binary-protocol face.
type BinServer struct {
	auth SessionAuth
	// nowFn is the clock; tests override it to force expiry.
	nowFn func() time.Time
	// ctx is what socket handlers run under; Close cancels it, so a
	// handler still running when the server shuts down is told to end.
	ctx    context.Context
	cancel context.CancelFunc

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
	ctx, cancel := context.WithCancel(context.Background())
	return &BinServer{
		auth:   auth,
		nowFn:  time.Now,
		ctx:    ctx,
		cancel: cancel,
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

// ServeConn runs the frame loop for one accepted binary connection; the
// BinMagic preamble has already been consumed by the demultiplexer.
// Handlers run under the server's context, which Close cancels.
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

	c := &srvConn{}
	defer s.end(c)
	rd := bufio.NewReaderSize(conn, frameReadBuf)
	for s.serveFrame(conn, rd, c) {
	}
}

// srvConn is the listener side of one link, a connection or an
// in-process lane: its session and the frame buffers answer reuses
// (see maxIdleFrameBuf).
type srvConn struct {
	sess *Session
	// buf holds incoming frames, fbuf the framed reply, whose payload is
	// encoded straight into it.
	buf, fbuf []byte
}

// serveFrame reads one frame off a connection and writes its answer,
// reporting whether the connection stays up.
func (s *BinServer) serveFrame(conn net.Conn, rd *bufio.Reader, c *srvConn) bool {
	defer c.releaseBuffers()
	payload, nbuf, err := readFrame(rd, c.buf)
	c.buf = nbuf
	if err != nil {
		return false
	}
	reply, keep := s.answer(s.ctx, c, payload)
	if reply == nil {
		return false
	}
	_, err = conn.Write(reply)
	return keep && err == nil
}

// answer is the listener's half of the protocol, whichever carrier
// brought the frame: it answers one frame payload on link c with the
// framed 'A', 'S' or 'E' reply and reports whether the link stays up.
// The first frame must be a hello; a hello arriving later rekeys the
// session in place. A stale session — expired, or anonymous on a
// server that has since gained an identity — gets 'E' expired and keeps
// the link, so the dialer rekeys (or falls back when its new hello is
// refused); any other fault means the link cannot be trusted further.
// A closed server answers nothing and ends the link.
func (s *BinServer) answer(ctx context.Context, c *srvConn, payload []byte) (reply []byte, keep bool) {
	s.mu.Lock()
	closed, disabled := s.closed, s.disabled
	s.mu.Unlock()
	if closed || len(payload) == 0 {
		return nil, false
	}
	switch payload[0] {
	case opHello:
		blob, err := decodeBlob(payload)
		if err != nil {
			return c.frame(encodeError(binErrBad, err.Error())), false
		}
		if disabled {
			return c.frame(encodeError(binErrRefused, "transport: binary protocol disabled on this endpoint")), false
		}
		accept, next, err := s.auth.AcceptSession(blob)
		if err != nil {
			return c.frame(encodeError(binErrRefused, err.Error())), false
		}
		if c.sess != nil {
			s.auth.NoteSessionEnd(c.sess, true)
		}
		c.sess = next
		return c.frame(encodeAccept(accept)), true
	case opRequest:
		if c.sess == nil {
			return c.frame(encodeError(binErrBad, "request before handshake")), false
		}
		if c.sess.stale(s.auth, s.nowFn()) {
			return c.frame(encodeError(binErrExpired, "session expired; rekey")), true
		}
		q, err := decodeRequest(c.sess, payload)
		if err != nil {
			return c.frame(encodeError(binErrBad, err.Error())), false
		}
		resp := s.dispatch(ctx, c.sess.Peer, &BinRequest{
			Path: q.Path, ContentType: q.ContentType, Action: q.Action, Body: q.Body,
		})
		var frame []byte
		c.fbuf, frame = responseFrame(c.fbuf, c.sess, q.Ctr, resp)
		return frame, true
	default:
		return c.frame(encodeError(binErrBad, fmt.Sprintf("unexpected op %q", payload[0]))), false
	}
}

// frame frames a reply payload into c's reply buffer.
func (c *srvConn) frame(payload []byte) []byte {
	c.fbuf = appendFrame(c.fbuf[:0], payload)
	return c.fbuf
}

// releaseBuffers drops any frame buffer that outgrew its last frame past
// maxIdleFrameBuf, so a link does not pin its largest frame.
func (c *srvConn) releaseBuffers() {
	c.buf, c.fbuf = trimFrameBuf(c.buf), trimFrameBuf(c.fbuf)
}

// end closes link c's session as its connection or lane goes away.
func (s *BinServer) end(c *srvConn) {
	if c.sess != nil {
		s.auth.NoteSessionEnd(c.sess, false)
		c.sess = nil
	}
}

// Close shuts the server: open connections are closed, new ones
// refused, and the context socket handlers run under is cancelled.
// Registered local lanes fail their next exchange and fall back to SOAP.
func (s *BinServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
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
