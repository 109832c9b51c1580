// Dialer is the one client-construction surface for everything that
// crosses a home boundary. It owns:
//
//   - credentials: per-operation request signing on the SOAP/HTTP path,
//     and the session handshake on the binary path — signed with an
//     identity, anonymous without one (anon.go), so open and secured
//     homes negotiate the same wire;
//   - protocol negotiation: whether a given authority speaks the binary
//     fast path, discovered once and remembered, with degradation back
//     to SOAP that never drops application state (the request — watch
//     cursor included — is simply re-sent over HTTP);
//   - the MemNet seam: a custom RoundTripper carries the HTTP path, and
//     confines binary negotiation to in-process authorities.
//
// The soap, uddi and peer clients take a *Dialer and negotiate through
// it. The events and upnp clients speak HTTP only and take an
// *http.Client, which a Dialer's HTTPClient supplies
// (OpenDialer().HTTPClient() when none is given).
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// ErrBinaryUnavailable reports that the binary fast path is not (or no
// longer) negotiated for an authority; the caller re-issues the same
// request over SOAP/HTTP. It is a routing signal, not a failure of the
// request itself.
var ErrBinaryUnavailable = errors.New("transport: binary fast path unavailable")

// errLaneClosed marks a local lane whose server has shut down or whose
// listener side ended the link.
var errLaneClosed = errors.New("transport: binary lane closed")

// errSessionExpired marks an 'E' expired reply: the listener found the
// session stale, and the dialer rekeys in place and retries once.
var errSessionExpired = errors.New("transport: session expired")

// Link modes.
const (
	modeUnknown = iota // not yet probed
	modeBinary         // handshake succeeded at least once
	modeSOAP           // refused, failed, or downgraded — HTTP only
)

const (
	// binDialTimeout bounds the TCP probe + handshake on first contact.
	binDialTimeout = 3 * time.Second
	// binReprobeInterval is how long a downgraded authority stays
	// SOAP-only before a fresh negotiation attempt.
	binReprobeInterval = time.Minute
	// maxIdleBinLinks bounds pooled idle links per authority; a watch
	// long-poll occupies one, calls share the rest.
	maxIdleBinLinks = 4
)

// LinkStats is one authority's wire-mode state, surfaced through
// Federation.Health (homeconnect.WireStats re-exports the map).
type LinkStats struct {
	// Protocol is "binary" when the fast path is negotiated, "soap"
	// when the authority is on the HTTP fallback.
	Protocol string `json:"protocol"`
	// SessionAgeMS is the age of the newest session, milliseconds.
	SessionAgeMS int64 `json:"session_age_ms,omitempty"`
	// Handshakes counts completed session handshakes (establishes and
	// rekeys both).
	Handshakes uint64 `json:"handshakes"`
	// Rekeys counts in-place session renewals on lifetime expiry.
	Rekeys uint64 `json:"rekeys"`
	// Downgrades counts binary→SOAP degradations (transport failure or
	// protocol fault mid-session).
	Downgrades uint64 `json:"downgrades"`
}

// WireStats maps authority ("host:port") to its link state.
type WireStats map[string]LinkStats

// Dialer owns credentials, protocol negotiation and the transport seam
// for one principal (usually one home). Configure fields before first
// use; the zero value is an anonymous, SOAP-only dialer over the shared
// TCP transport.
type Dialer struct {
	// Creds signs SOAP/HTTP requests per-operation and verifies
	// response signatures; nil or inactive means plain HTTP (open
	// mode).
	Creds Credentials
	// Session is the binary handshake provider; nil disables fast-path
	// negotiation entirely.
	Session SessionAuth
	// Transport, when set, carries the HTTP path (the MemNet seam) and
	// restricts binary negotiation to in-process authorities.
	Transport http.RoundTripper
	// Binary gates fast-path negotiation. NewDialer turns it on
	// whenever it has a session provider; SetBinary changes it once the
	// dialer is in use.
	Binary bool
	// Timeout, when set, bounds each HTTP request, for delivery paths
	// without a context discipline (push callbacks).
	Timeout time.Duration

	mu    sync.Mutex
	httpC *http.Client
	links map[string]*linkState
	nowFn func() time.Time
}

// linkState is one authority's negotiation state and link pool.
type linkState struct {
	mode       int
	retryAt    time.Time // earliest re-probe after a downgrade
	idle       []*binLink
	handshakes uint64
	rekeys     uint64
	downgrades uint64
	lastStart  time.Time // newest session establishment
}

// NewDialer builds a dialer for the given credentials, with binary
// negotiation on. Credentials that also implement SessionAuth (a home's
// identity.Auth does) run its handshakes — signed once an identity is
// installed, anonymous before; nil credentials run anonymous sessions
// (Anonymous). Other credentials sign SOAP/HTTP only and never negotiate.
func NewDialer(creds Credentials) *Dialer {
	d := &Dialer{Creds: creds, Session: Anonymous, Binary: true}
	if creds != nil {
		d.Session, d.Binary = nil, false
		if sa, ok := creds.(SessionAuth); ok {
			d.Session, d.Binary = sa, true
		}
	}
	return d
}

// openDialer backs OpenDialer.
var openDialer = NewDialer(nil)

// OpenDialer returns the process-wide dialer for clients with no
// credentials of their own (vsr.New): anonymous sessions, one link pool
// per authority shared by every such client — the binary counterpart of
// Shared.
func OpenDialer() *Dialer { return openDialer }

// now returns the dialer clock.
func (d *Dialer) now() time.Time {
	if d.nowFn != nil {
		return d.nowFn()
	}
	return time.Now()
}

// setClock overrides the dialer clock (tests force expiry with it).
func (d *Dialer) setClock(now func() time.Time) {
	d.mu.Lock()
	d.nowFn = now
	d.mu.Unlock()
}

// HTTPClient returns the SOAP/HTTP side of the dialer: per-operation
// signing when credentials are present, over Transport or the shared
// keep-alive transport. The client is built once and reused.
func (d *Dialer) HTTPClient() *http.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.httpC != nil {
		return d.httpC
	}
	rt := d.Transport
	if rt == nil {
		rt = Shared()
	}
	if d.Creds != nil {
		d.httpC = &http.Client{Transport: &authRoundTripper{creds: d.Creds, next: rt}, Timeout: d.Timeout}
	} else {
		d.httpC = &http.Client{Transport: rt, Timeout: d.Timeout}
	}
	return d.httpC
}

// SetBinary turns fast-path negotiation on or off; safe while exchanges
// are in flight (they finish on the wire they started on).
func (d *Dialer) SetBinary(on bool) {
	d.mu.Lock()
	d.Binary = on
	d.mu.Unlock()
}

// binaryEligible reports whether fast-path negotiation is even possible.
func (d *Dialer) binaryEligible() bool {
	d.mu.Lock()
	on := d.Binary
	d.mu.Unlock()
	return on && d.Session != nil
}

// link returns (creating if needed) the state for an authority.
func (d *Dialer) link(authority string) *linkState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.links == nil {
		d.links = make(map[string]*linkState)
	}
	st := d.links[authority]
	if st == nil {
		st = &linkState{}
		d.links[authority] = st
	}
	return st
}

// BinResult is a completed binary exchange.
type BinResult struct {
	// Status is the HTTP-equivalent status code, so binary and SOAP
	// responses classify identically.
	Status      int
	ContentType string
	Body        []byte
}

// Exchange runs one request over the binary fast path to rawURL's
// authority and hands the reply to decode. contentType names a native
// binary encoding (binuddi, the binary call framing); XML documents go
// over HTTPClient, never here. decode runs while the link still owns the
// reply's buffer: res.Body is valid only until decode returns, so decode
// copies out whatever it keeps, and the reply is never copied whole.
// Exchange's error is the transport's; a decode error is the caller's to
// keep. ErrBinaryUnavailable means the authority has
// not (or no longer) negotiated binary — re-send the operation over
// HTTPClient(); because the request carries all application state (watch
// cursors included), nothing is lost in the downgrade. Context
// cancellation surfaces as the context's error, never as a downgrade,
// and a reply that arrives after it is not decoded.
func (d *Dialer) Exchange(ctx context.Context, rawURL, contentType, action string, body []byte, decode func(res BinResult)) error {
	if !d.binaryEligible() {
		return ErrBinaryUnavailable
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return ErrBinaryUnavailable
	}
	authority, path := u.Host, u.Path
	if path == "" {
		path = "/"
	}
	st := d.link(authority)

	l, err := d.acquire(st, authority)
	if err != nil {
		return err
	}
	res, err := l.exchange(ctx, path, contentType, action, body)
	if err != nil {
		l.discard()
		if cerr := callerErr(ctx, err); cerr != nil {
			return fmt.Errorf("transport: binary exchange: %w", cerr)
		}
		d.downgrade(st)
		return fmt.Errorf("%w: %v", ErrBinaryUnavailable, err)
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller's context ended while the exchange ran — on a local
		// lane the handler even saw it end. An HTTP round trip would have
		// been abandoned at that moment, so report the context, not the
		// (possibly context-shaped) reply.
		err = fmt.Errorf("transport: binary exchange: %w", cerr)
	} else {
		decode(res)
	}
	if l.interrupted {
		// The cancellation hook fired after the exchange finished: it may
		// have left a past deadline on the socket, so the link cannot be
		// pooled.
		l.discard()
	} else {
		d.release(st, l)
	}
	return err
}

// callerErr reports a failed exchange that is the caller's own doing:
// a cancelled context, or a network timeout at or past the context's
// deadline. The socket carries the context's deadline, and its i/o
// timeout usually fires a moment before the context's own timer does;
// either way the link did nothing wrong and must not be downgraded.
func callerErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var ne net.Error
	if dl, ok := ctx.Deadline(); ok && errors.As(err, &ne) && ne.Timeout() && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// acquire pops an idle link for the authority or negotiates a new one.
func (d *Dialer) acquire(st *linkState, authority string) (*binLink, error) {
	now := d.now()
	d.mu.Lock()
	if st.mode == modeSOAP && now.Before(st.retryAt) {
		d.mu.Unlock()
		return nil, ErrBinaryUnavailable
	}
	if n := len(st.idle); n > 0 {
		l := st.idle[n-1]
		st.idle = st.idle[:n-1]
		d.mu.Unlock()
		return l, nil
	}
	d.mu.Unlock()

	l, err := d.negotiate(st, authority)
	if err != nil {
		d.mu.Lock()
		st.mode = modeSOAP
		st.retryAt = now.Add(binReprobeInterval)
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrBinaryUnavailable, err)
	}
	d.mu.Lock()
	st.mode = modeBinary
	st.handshakes++
	st.lastStart = now
	d.mu.Unlock()
	return l, nil
}

// negotiate establishes one new link: the in-process registry first,
// then — only on the default TCP transport — a dial with the BinMagic
// preamble. Either way the link opens with a handshake.
func (d *Dialer) negotiate(st *linkState, authority string) (*binLink, error) {
	l := &binLink{d: d, st: st}
	if srv := lookupLocal(authority); srv != nil {
		l.lane, l.peer = srv, &srvConn{}
	} else if d.Transport != nil {
		// A custom transport (MemNet) has no socket to dial.
		return nil, fmt.Errorf("no in-process binary endpoint for %s", authority)
	} else {
		conn, err := net.DialTimeout("tcp", authority, binDialTimeout)
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write([]byte(BinMagic)); err != nil {
			conn.Close()
			return nil, err
		}
		l.conn = conn
	}
	if err := l.handshake(); err != nil {
		l.discard()
		return nil, err
	}
	return l, nil
}

// finishAccept folds an accept-or-error payload into a session.
func finishAccept(hc SessionClient, payload []byte) (*Session, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("transport: empty handshake reply")
	}
	switch payload[0] {
	case opAccept:
		blob, err := decodeBlob(payload)
		if err != nil {
			return nil, err
		}
		return hc.Finish(blob)
	case opError:
		code, msg, err := decodeError(payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: peer refused binary handshake (%s): %s", code, msg)
	default:
		return nil, fmt.Errorf("transport: unexpected handshake op %q", payload[0])
	}
}

// release returns a healthy link to the pool (bounded; overflow closes).
func (d *Dialer) release(st *linkState, l *binLink) {
	d.mu.Lock()
	if len(st.idle) < maxIdleBinLinks {
		st.idle = append(st.idle, l)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	l.discard()
}

// downgrade records a binary→SOAP degradation for an authority. Pooled
// links are dropped; the authority re-probes after binReprobeInterval.
func (d *Dialer) downgrade(st *linkState) {
	d.mu.Lock()
	st.mode = modeSOAP
	st.retryAt = d.now().Add(binReprobeInterval)
	st.downgrades++
	idle := st.idle
	st.idle = nil
	d.mu.Unlock()
	for _, l := range idle {
		l.discard()
	}
}

// noteRekey counts one in-place session renewal.
func (d *Dialer) noteRekey(st *linkState) {
	d.mu.Lock()
	st.rekeys++
	st.handshakes++
	st.lastStart = d.now()
	d.mu.Unlock()
}

// ProtocolFor reports the negotiated protocol for a URL's authority:
// "binary", "soap", or "" when the authority has never been dialed.
func (d *Dialer) ProtocolFor(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.links[u.Host]
	if st == nil {
		return ""
	}
	switch st.mode {
	case modeBinary:
		return "binary"
	case modeSOAP:
		return "soap"
	}
	return ""
}

// WireStatsSnapshot reports every dialed authority's link state.
func (d *Dialer) WireStatsSnapshot() WireStats {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(WireStats, len(d.links))
	for authority, st := range d.links {
		ls := LinkStats{Protocol: "soap", Handshakes: st.handshakes,
			Rekeys: st.rekeys, Downgrades: st.downgrades}
		if st.mode == modeBinary {
			ls.Protocol = "binary"
			if !st.lastStart.IsZero() {
				ls.SessionAgeMS = now.Sub(st.lastStart).Milliseconds()
			}
		}
		out[authority] = ls
	}
	return out
}

// Close drops every pooled link, ending their sessions.
func (d *Dialer) Close() {
	d.mu.Lock()
	var all []*binLink
	for _, st := range d.links {
		all = append(all, st.idle...)
		st.idle = nil
	}
	d.mu.Unlock()
	for _, l := range all {
		l.discard()
	}
}

// binLink is one pooled fast-path link: a session over one carrier,
// either a TCP connection or an in-process lane (local.go). Links are
// used serially; the pool provides concurrency.
type binLink struct {
	d  *Dialer
	st *linkState

	// The carrier: conn, or lane with peer, its listener side.
	conn net.Conn
	rd   *bufio.Reader // conn's frames are read through it (see frameReadBuf)
	lane *BinServer
	peer *srvConn
	sess *Session
	// Frame buffers, reused across exchanges (see maxIdleFrameBuf): buf
	// holds the reply frame's payload, wbuf the framed request, whose
	// payload is encoded straight into it.
	buf  []byte
	wbuf []byte
	// interrupted marks a conn whose cancellation hook ran (or may still
	// run) after its exchange: its deadline is no longer ours to trust.
	interrupted bool
}

// exchange runs one request, rekeying in place when the session is
// stale (proactively: its lifetime elapsed on the dialer clock, or it is
// anonymous and an identity has since been installed) or when the
// listener says 'E' expired. The result's body aliases the link's
// buffer until its next exchange.
func (l *binLink) exchange(ctx context.Context, path, contentType, action string, body []byte) (BinResult, error) {
	// Dropping an outgrown buffer leaves the result's body valid: it
	// still holds the array.
	defer l.releaseBuffers()
	if l.sess.stale(l.d.Session, l.d.now()) {
		if err := l.rekey(); err != nil {
			return BinResult{}, err
		}
	}
	resp, err := l.request(ctx, path, contentType, action, body)
	if errors.Is(err, errSessionExpired) {
		// Listener clock ran ahead of ours: rekey and retry once.
		if err := l.rekey(); err != nil {
			return BinResult{}, err
		}
		resp, err = l.request(ctx, path, contentType, action, body)
	}
	if err != nil {
		return BinResult{}, err
	}
	return BinResult{Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body}, nil
}

// request sends one MAC'd request and verifies its reply. An 'E' expired
// reply surfaces as errSessionExpired.
func (l *binLink) request(ctx context.Context, path, contentType, action string, body []byte) (binResponse, error) {
	ctr := l.sess.peekSendCtr()
	l.wbuf = requestFrame(l.wbuf, l.sess, path, contentType, action, body)
	payload, err := l.roundTrip(ctx, l.wbuf)
	if err != nil {
		return binResponse{}, err
	}
	if len(payload) > 0 && payload[0] == opError {
		code, msg, err := decodeError(payload)
		switch {
		case err != nil:
			return binResponse{}, err
		case code == binErrExpired:
			return binResponse{}, errSessionExpired
		}
		return binResponse{}, fmt.Errorf("transport: peer reported %s: %s", code, msg)
	}
	return decodeResponse(l.sess, payload, ctr)
}

// handshake runs one hello/accept exchange, bounded by binDialTimeout,
// and installs the new session; a session it replaces ends as a rekey.
func (l *binLink) handshake() error {
	hc, err := l.d.Session.NewSessionClient()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), binDialTimeout)
	defer cancel()
	l.wbuf = appendFrame(l.wbuf[:0], encodeHello(hc.Hello()))
	payload, err := l.roundTrip(ctx, l.wbuf)
	if err != nil {
		return err
	}
	sess, err := finishAccept(hc, payload)
	if err != nil {
		return err
	}
	if l.sess != nil {
		l.d.Session.NoteSessionEnd(l.sess, true)
	}
	l.sess = sess
	return nil
}

// rekey renews the link's session in place and counts it.
func (l *binLink) rekey() error {
	if err := l.handshake(); err != nil {
		return err
	}
	l.d.noteRekey(l.st)
	return nil
}

// roundTrip carries one frame to the listener and returns the payload
// of the reply frame, which aliases l.buf. On a connection the context's
// deadline and cancellation bound the write and the read; a lane is
// answered on the caller's goroutine (laneTrip).
func (l *binLink) roundTrip(ctx context.Context, frame []byte) ([]byte, error) {
	if l.lane != nil {
		return l.laneTrip(ctx, frame)
	}
	if deadline, ok := ctx.Deadline(); ok {
		l.conn.SetDeadline(deadline)
		defer l.conn.SetDeadline(time.Time{})
	}
	// Interrupt a blocked read or write when ctx is cancelled. If the
	// hook has already started by the time the round trip is done, it can
	// land a past deadline after the deferred reset: mark the link instead
	// of pooling it.
	if ctx.Done() != nil {
		conn := l.conn
		stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			if !stop() {
				l.interrupted = true
			}
		}()
	}
	if _, err := l.conn.Write(frame); err != nil {
		return nil, err
	}
	reply, nbuf, err := readFrame(frameReader(&l.rd, l.conn), l.buf)
	l.buf = nbuf
	return reply, err
}

// releaseBuffers drops any frame buffer that outgrew its last frame past
// maxIdleFrameBuf, so a pooled link does not pin its largest frame.
func (l *binLink) releaseBuffers() {
	l.buf, l.wbuf = trimFrameBuf(l.buf), trimFrameBuf(l.wbuf)
}

// discard closes the link for good, ending its session on both sides: a
// connection's listener sees it close, a lane's is ended here.
func (l *binLink) discard() {
	if l.sess != nil {
		l.d.Session.NoteSessionEnd(l.sess, false)
		l.sess = nil
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	if l.peer != nil {
		l.lane.end(l.peer)
		l.peer = nil
	}
}
