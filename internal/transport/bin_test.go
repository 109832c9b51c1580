// Tests for the binary fast path: frame encode/decode and CRC defense,
// session MAC and replay-counter enforcement, the BinServer frame loop
// over real connections, and the Dialer's negotiation, pooling, rekey
// and downgrade behaviour. The handshake provider here is a test fake —
// the real ed25519/X25519 provider is exercised in
// internal/core/identity's own tests.
package transport

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeKeys derives a deterministic key pair for a dialer/listener name
// pair, so both fake handshake halves agree without real key exchange.
func fakeKeys(dialer, listener string) (c2s, s2c [32]byte) {
	c2s = sha256.Sum256([]byte("c2s\x00" + dialer + "\x00" + listener))
	s2c = sha256.Sum256([]byte("s2c\x00" + dialer + "\x00" + listener))
	return c2s, s2c
}

// fakeAuth is a SessionAuth test double: hellos carry the dialer's home
// name in the clear and the session keys are derived from the name pair.
type fakeAuth struct {
	home   string
	ttl    time.Duration
	refuse bool // listener side rejects every hello

	mu      sync.Mutex
	accepts int
	ends    int
	rekeys  int
}

func (f *fakeAuth) SessionSigned() bool { return true }

func (f *fakeAuth) lifetime() time.Duration {
	if f.ttl > 0 {
		return f.ttl
	}
	return time.Hour
}

func (f *fakeAuth) NewSessionClient() (SessionClient, error) {
	return &fakeClient{auth: f}, nil
}

func (f *fakeAuth) AcceptSession(hello []byte) ([]byte, *Session, error) {
	if f.refuse {
		return nil, nil, errors.New("fake: hello refused")
	}
	peer := string(hello)
	f.mu.Lock()
	f.accepts++
	f.mu.Unlock()
	c2s, s2c := fakeKeys(peer, f.home)
	now := time.Now()
	s := NewSession("sess-"+peer, peer, now, now.Add(f.lifetime()), s2c, c2s)
	return []byte(f.home), s, nil
}

func (f *fakeAuth) NoteSessionEnd(s *Session, rekeyed bool) {
	f.mu.Lock()
	if rekeyed {
		f.rekeys++
	} else {
		f.ends++
	}
	f.mu.Unlock()
}

type fakeClient struct{ auth *fakeAuth }

func (c *fakeClient) Hello() []byte { return []byte(c.auth.home) }

func (c *fakeClient) Finish(accept []byte) (*Session, error) {
	peer := string(accept)
	c2s, s2c := fakeKeys(c.auth.home, peer)
	now := time.Now()
	return NewSession("sess-"+c.auth.home, peer, now, now.Add(c.auth.lifetime()), c2s, s2c), nil
}

// sessionPair builds a matched dialer/listener session pair directly.
func sessionPair(ttl time.Duration) (client, server *Session) {
	c2s, s2c := fakeKeys("a", "b")
	now := time.Now()
	client = NewSession("s", "b", now, now.Add(ttl), c2s, s2c)
	server = NewSession("s", "a", now, now.Add(ttl), s2c, c2s)
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xA5}, 70000), // spans multiple reads
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, nbuf, err := readFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = nbuf
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	frame := appendFrame(nil, []byte("hello frame"))
	frame[len(frame)-1] ^= 0xFF // corrupt payload after the CRC was taken
	_, _, err := readFrame(bytes.NewReader(frame), nil)
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted frame accepted: %v", err)
	}
}

func TestFrameLengthBound(t *testing.T) {
	var hdr [8]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x7F // absurd length
	_, _, err := readFrame(bytes.NewReader(hdr[:]), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame length accepted: %v", err)
	}
}

func TestRequestResponseMACAndCounters(t *testing.T) {
	client, server := sessionPair(time.Hour)

	payload := encodeRequest(nil, client, "/uddi", "text/xml", "save", []byte("<body/>"))
	q, err := decodeRequest(server, payload)
	if err != nil {
		t.Fatal(err)
	}
	if q.Path != "/uddi" || q.ContentType != "text/xml" || q.Action != "save" || string(q.Body) != "<body/>" {
		t.Fatalf("decoded request = %+v", q)
	}

	// Replaying the same payload must fail on the counter.
	if _, err := decodeRequest(server, payload); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Fatalf("replayed request accepted: %v", err)
	}

	// A tampered body must fail the MAC before anything else.
	bad := encodeRequest(nil, client, "/uddi", "text/xml", "save", []byte("<body/>"))
	bad[len(bad)/2] ^= 0x01
	if _, err := decodeRequest(server, bad); err == nil || !strings.Contains(err.Error(), "MAC") {
		t.Fatalf("tampered request accepted: %v", err)
	}

	// Response echoes the request counter; a mismatched echo is refused.
	resp := responsePayload(server, q.Ctr, 200, "text/plain", []byte("ok"))
	r, err := decodeResponse(client, resp, q.Ctr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 200 || string(r.Body) != "ok" {
		t.Fatalf("decoded response = %+v", r)
	}
	wrong := responsePayload(server, 99, 200, "text/plain", []byte("ok"))
	if _, err := decodeResponse(client, wrong, 1); err == nil {
		t.Fatal("response answering the wrong request accepted")
	}
}

func TestErrorAndHandshakeFrames(t *testing.T) {
	code, msg, err := decodeError(encodeError(binErrRefused, "not today"))
	if err != nil || code != binErrRefused || msg != "not today" {
		t.Fatalf("decodeError = %q %q %v", code, msg, err)
	}
	blob, err := decodeBlob(encodeHello([]byte("hi")))
	if err != nil || string(blob) != "hi" {
		t.Fatalf("decodeBlob(hello) = %q %v", blob, err)
	}
	blob, err = decodeBlob(encodeAccept([]byte("yo")))
	if err != nil || string(blob) != "yo" {
		t.Fatalf("decodeBlob(accept) = %q %v", blob, err)
	}
}

// echoServer builds a BinServer echoing path:body for any route.
func echoServer(auth *fakeAuth) *BinServer {
	s := NewBinServer(auth)
	s.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
		return &BinResponse{Status: 200, ContentType: "text/plain",
			Body: []byte(caller + ":" + req.Path + ":" + string(req.Body))}
	}))
	return s
}

// serveTCP runs a plain TCP accept loop that consumes the BinMagic
// preamble and hands each connection to srv — the demux fast path alone.
func serveTCP(t *testing.T, srv *BinServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				var magic [len(BinMagic)]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != BinMagic {
					conn.Close()
					return
				}
				srv.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestDialerOverTCP(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := echoServer(listener)
	defer srv.Close()
	authority := serveTCP(t, srv)

	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := exchangeCopy(d, ctx, "http://"+authority+"/uddi", "text/xml", "", []byte(fmt.Sprintf("b%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("dialer:/uddi:b%d", i)
		if res.Status != 200 || string(res.Body) != want {
			t.Fatalf("exchange %d = %d %q, want 200 %q", i, res.Status, res.Body, want)
		}
	}
	if p := d.ProtocolFor("http://" + authority + "/uddi"); p != "binary" {
		t.Fatalf("ProtocolFor = %q, want binary", p)
	}
	// Three serial calls share one pooled link: exactly one handshake.
	st := d.WireStatsSnapshot()[authority]
	if st.Handshakes != 1 || st.Protocol != "binary" {
		t.Fatalf("link stats = %+v, want one handshake on binary", st)
	}
}

func TestDialerRefusedHandshakeDowngrades(t *testing.T) {
	listener := &fakeAuth{home: "listener", refuse: true}
	srv := echoServer(listener)
	defer srv.Close()
	authority := serveTCP(t, srv)

	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	_, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/xml", "", []byte("x"))
	if !errors.Is(err, ErrBinaryUnavailable) {
		t.Fatalf("refused handshake = %v, want ErrBinaryUnavailable", err)
	}
	if p := d.ProtocolFor("http://" + authority + "/"); p != "soap" {
		t.Fatalf("ProtocolFor after refusal = %q, want soap", p)
	}
	// Within the re-probe window every further attempt short-circuits.
	if _, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/xml", "", []byte("x")); !errors.Is(err, ErrBinaryUnavailable) {
		t.Fatalf("second attempt = %v, want ErrBinaryUnavailable", err)
	}
	// After the window, the dialer re-probes and can recover.
	listener.refuse = false
	d.setClock(func() time.Time { return time.Now().Add(binReprobeInterval + time.Second) })
	res, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/xml", "", []byte("again"))
	if err != nil || string(res.Body) != "dialer:/uddi:again" {
		t.Fatalf("post-reprobe exchange = %v %v", res, err)
	}
}

func TestDialerDisabledServerRefusal(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := echoServer(listener)
	defer srv.Close()
	srv.SetEnabled(false)
	authority := serveTCP(t, srv)

	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	_, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/xml", "", []byte("x"))
	if !errors.Is(err, ErrBinaryUnavailable) {
		t.Fatalf("disabled server = %v, want ErrBinaryUnavailable", err)
	}
}

func TestDialerLocalLane(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := echoServer(listener)
	defer srv.Close()
	RegisterLocal("local.test:1", srv)
	defer UnregisterLocal("local.test:1")

	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	res, err := exchangeCopy(d, context.Background(), "http://local.test:1/peer", "text/xml", "pull", []byte("cursor=5"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "dialer:/peer:cursor=5" {
		t.Fatalf("local lane body = %q", res.Body)
	}
	if listener.accepts != 1 {
		t.Fatalf("local lane ran %d handshakes, want 1", listener.accepts)
	}
	// Closing the server poisons pooled lanes; the next exchange reports
	// the fast path unavailable so the caller falls back to SOAP.
	srv.Close()
	if _, err := exchangeCopy(d, context.Background(), "http://local.test:1/peer", "text/xml", "", nil); !errors.Is(err, ErrBinaryUnavailable) {
		t.Fatalf("closed-server exchange = %v, want ErrBinaryUnavailable", err)
	}
}

func TestDialerRekeyOnExpiry(t *testing.T) {
	listener := &fakeAuth{home: "listener", ttl: 50 * time.Millisecond}
	dialerAuth := &fakeAuth{home: "dialer", ttl: 50 * time.Millisecond}
	srv := echoServer(listener)
	defer srv.Close()
	RegisterLocal("rekey.test:1", srv)
	defer UnregisterLocal("rekey.test:1")

	d := &Dialer{Session: dialerAuth, Binary: true}
	defer d.Close()
	if _, err := exchangeCopy(d, context.Background(), "http://rekey.test:1/uddi", "text/xml", "", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Past the session lifetime the pooled lane rekeys in place: the
	// exchange succeeds, the rekey is counted, and the provider saw the
	// old session end as a rekey.
	d.setClock(func() time.Time { return time.Now().Add(time.Minute) })
	if _, err := exchangeCopy(d, context.Background(), "http://rekey.test:1/uddi", "text/xml", "", []byte("b")); err != nil {
		t.Fatal(err)
	}
	st := d.WireStatsSnapshot()["rekey.test:1"]
	if st.Rekeys != 1 || st.Handshakes != 2 {
		t.Fatalf("after expiry: %+v, want 1 rekey / 2 handshakes", st)
	}
	if dialerAuth.rekeys == 0 || listener.rekeys == 0 {
		t.Fatalf("providers saw rekeys dialer=%d listener=%d, want both > 0", dialerAuth.rekeys, listener.rekeys)
	}
}

func TestDialerContextCancellationIsNotADowngrade(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := NewBinServer(listener)
	handlerDone := make(chan struct{}, 1)
	srv.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
		<-ctx.Done() // hold the request until the server gives up on it
		handlerDone <- struct{}{}
		return &BinResponse{Status: 200}
	}))
	defer srv.Close()
	authority := serveTCP(t, srv)

	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := exchangeCopy(d, ctx, "http://"+authority+"/uddi", "text/xml", "", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled exchange = %v, want the context error", err)
	}
	if errors.Is(err, ErrBinaryUnavailable) {
		t.Fatal("context cancellation was reported as a downgrade")
	}
	// The authority stays on binary: cancellation is the caller's doing,
	// not the link's.
	if p := d.ProtocolFor("http://" + authority + "/"); p != "binary" {
		t.Fatalf("protocol after cancellation = %q, want binary", p)
	}
	// A socket handler runs under the server's context, so closing the
	// server ends the request the caller abandoned.
	srv.Close()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running after the server closed")
	}
}

func TestDemuxSharesPortWithHTTP(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := echoServer(listener)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/plain", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "http ok")
	})
	httpS := &http.Server{Handler: mux}
	demuxed := Demux(ln, srv)
	go httpS.Serve(demuxed)
	defer httpS.Close()
	authority := ln.Addr().String()

	// HTTP through the demultiplexer.
	resp, err := http.Get("http://" + authority + "/plain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "http ok" {
		t.Fatalf("HTTP body through demux = %q", body)
	}
	// Binary on the same port.
	d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
	defer d.Close()
	res, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/xml", "", []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "dialer:/uddi:b" {
		t.Fatalf("binary body through demux = %q", res.Body)
	}
}

func TestBinServerRequestBeforeHandshake(t *testing.T) {
	listener := &fakeAuth{home: "listener"}
	srv := echoServer(listener)
	defer srv.Close()
	authority := serveTCP(t, srv)
	conn, err := net.Dial("tcp", authority)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(BinMagic)); err != nil {
		t.Fatal(err)
	}
	// A 'Q' with no session: the server must refuse, not crash.
	client, _ := sessionPair(time.Hour)
	if err := writeFrame(conn, encodeRequest(nil, client, "/uddi", "", "", nil)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _, err := decodeError(payload)
	if err != nil || code != binErrBad {
		t.Fatalf("pre-handshake request answered %q %v, want %q", code, err, binErrBad)
	}
}

// TestLargeExchangeReleasesFrameBuffers: after a 1 MiB request and reply,
// the next small exchange leaves neither the link nor its listener side
// (over a connection or an in-process lane) with a frame buffer larger
// than maxIdleFrameBuf, and further small frames reuse theirs.
func TestLargeExchangeReleasesFrameBuffers(t *testing.T) {
	srv := NewBinServer(&fakeAuth{home: "b"})
	srv.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
		return &BinResponse{Status: 200, ContentType: "application/octet-stream", Body: req.Body}
	}))
	sizes := []int{1 << 20, 100, 100}
	// check inspects the buffers after exchange i of sizes.
	check := func(i int, bufs map[string][]byte) {
		t.Helper()
		for name, b := range bufs {
			if i >= 1 && cap(b) > maxIdleFrameBuf {
				t.Errorf("after exchange %d (%d bytes) %s keeps %d bytes", i, sizes[i], name, cap(b))
			}
			if i == 2 && cap(b) == 0 {
				t.Errorf("after exchange %d (%d bytes) %s was not kept for reuse", i, sizes[i], name)
			}
		}
	}

	client, server := sessionPair(time.Hour)
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()
	c := &srvConn{sess: server}
	rd := bufio.NewReaderSize(srvEnd, frameReadBuf)
	l := &binLink{d: &Dialer{Session: &fakeAuth{home: "a"}}, conn: cliEnd, sess: client}
	for i, size := range sizes {
		served := make(chan bool, 1)
		go func() { served <- srv.serveFrame(srvEnd, rd, c) }()
		body := bytes.Repeat([]byte{0x5A}, size)
		res, err := l.exchange(context.Background(), "/echo", "application/octet-stream", "", body)
		if err != nil {
			t.Fatalf("%d-byte exchange: %v", size, err)
		}
		if !<-served {
			t.Fatalf("%d-byte exchange: server dropped the connection", size)
		}
		if !bytes.Equal(res.Body, body) {
			t.Fatalf("%d-byte exchange: echoed %d bytes", size, len(res.Body))
		}
		check(i, map[string][]byte{
			"link buf": l.buf, "link wbuf": l.wbuf,
			"conn buf": c.buf, "conn fbuf": c.fbuf,
		})
	}

	ll := &binLink{d: l.d, lane: srv, peer: &srvConn{}}
	if err := ll.handshake(); err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		if _, err := ll.exchange(context.Background(), "/echo", "application/octet-stream", "", make([]byte, size)); err != nil {
			t.Fatalf("%d-byte lane exchange: %v", size, err)
		}
		p := ll.peer
		check(i, map[string][]byte{
			"lane link buf": ll.buf, "lane link wbuf": ll.wbuf,
			"lane peer buf": p.buf, "lane peer fbuf": p.fbuf,
		})
	}
}

// replyOf names what a link got back from the listener: the reply op,
// with the code for an 'E' frame, or "none" when no reply came.
func replyOf(reply []byte, err error) string {
	switch {
	case err != nil:
		return "none"
	case len(reply) == 0:
		return "empty"
	case reply[0] == opError:
		code, _, _ := decodeError(reply)
		return "E " + code
	}
	return string(reply[:1])
}

// TestCarriersAnswerAlike runs each frame-level case over both carriers
// — a connection served by ServeConn and an in-process lane — and
// requires the same replies and the same link fate from each: the
// protocol lives in BinServer.answer and the binLink above roundTrip,
// whatever moves the frames.
func TestCarriersAnswerAlike(t *testing.T) {
	// staleFor makes srv see every session as expired for its next n
	// requests.
	staleFor := func(srv *BinServer, n int32) {
		var left atomic.Int32
		left.Store(n)
		srv.setClock(func() time.Time {
			if left.Add(-1) >= 0 {
				return time.Now().Add(2 * time.Hour)
			}
			return time.Now()
		})
	}
	echo := func(l *binLink) string {
		res, err := l.exchange(context.Background(), "/x", "text/plain", "", []byte("hi"))
		if err != nil {
			return "none"
		}
		return fmt.Sprintf("%d %s", res.Status, res.Body)
	}
	cases := []struct {
		name string
		// handshake opens the link before run.
		handshake bool
		run       func(srv *BinServer, l *binLink) string
		want      string
		kept      bool
	}{
		{name: "request before hello",
			run: func(srv *BinServer, l *binLink) string {
				client, _ := sessionPair(time.Hour)
				return replyOf(l.roundTrip(context.Background(), appendFrame(nil, encodeRequest(nil, client, "/x", "", "", nil))))
			},
			want: "E bad"},
		{name: "hello to a disabled server",
			run: func(srv *BinServer, l *binLink) string {
				srv.SetEnabled(false)
				return replyOf(l.roundTrip(context.Background(), appendFrame(nil, encodeHello([]byte("dialer")))))
			},
			want: "E refused"},
		{name: "expired session rekeys and retries once", handshake: true,
			run: func(srv *BinServer, l *binLink) string {
				staleFor(srv, 2)
				raw := replyOf(l.roundTrip(context.Background(), appendFrame(nil, encodeRequest(nil, l.sess, "/x", "", "", nil))))
				out := echo(l)
				return fmt.Sprintf("%s; %s; rekeys=%d", raw, out, l.st.rekeys)
			},
			want: "E expired; 200 listener:dialer:hi; rekeys=1", kept: true},
		{name: "tampered MAC", handshake: true,
			run: func(srv *BinServer, l *binLink) string {
				q := encodeRequest(nil, l.sess, "/x", "", "", []byte("hi"))
				q[len(q)-1] ^= 1
				return replyOf(l.roundTrip(context.Background(), appendFrame(nil, q)))
			},
			want: "E bad"},
		{name: "unknown op", handshake: true,
			run: func(srv *BinServer, l *binLink) string {
				return replyOf(l.roundTrip(context.Background(), appendFrame(nil, []byte{'Z'})))
			},
			want: "E bad"},
		{name: "exchange after Close", handshake: true,
			run: func(srv *BinServer, l *binLink) string {
				srv.Close()
				return echo(l)
			},
			want: "none"},
	}
	carriers := []struct {
		name string
		link func(t *testing.T, srv *BinServer, d *Dialer) *binLink
	}{
		{"socket", func(t *testing.T, srv *BinServer, d *Dialer) *binLink {
			cli, sv := net.Pipe()
			t.Cleanup(func() { cli.Close() })
			go srv.ServeConn(sv)
			return &binLink{d: d, st: &linkState{}, conn: cli}
		}},
		{"lane", func(t *testing.T, srv *BinServer, d *Dialer) *binLink {
			return &binLink{d: d, st: &linkState{}, lane: srv, peer: &srvConn{}}
		}},
	}
	for _, tc := range cases {
		for _, cr := range carriers {
			t.Run(tc.name+"/"+cr.name, func(t *testing.T) {
				srv := NewBinServer(&fakeAuth{home: "listener"})
				srv.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
					return &BinResponse{Status: 200, Body: []byte("listener:" + caller + ":" + string(req.Body))}
				}))
				defer srv.Close()
				d := &Dialer{Session: &fakeAuth{home: "dialer"}, Binary: true}
				l := cr.link(t, srv, d)
				defer l.discard()
				if tc.handshake {
					if err := l.handshake(); err != nil {
						t.Fatal(err)
					}
				}
				if got := tc.run(srv, l); got != tc.want {
					t.Errorf("reply = %q, want %q", got, tc.want)
				}
				// The link's fate: a kept link answers a fresh hello, a
				// dropped one answers nothing.
				fate := replyOf(l.roundTrip(context.Background(), appendFrame(nil, encodeHello([]byte("dialer")))))
				if kept := fate == "A"; kept != tc.kept {
					t.Errorf("after the case the link answers a hello with %q, want kept=%v", fate, tc.kept)
				}
			})
		}
	}
}

// exchangeCopy runs d.Exchange and returns a copy of the reply, for
// tests that inspect it after the link is back in the pool.
func exchangeCopy(d *Dialer, ctx context.Context, rawURL, contentType, action string, body []byte) (*BinResult, error) {
	var out *BinResult
	err := d.Exchange(ctx, rawURL, contentType, action, body, func(res BinResult) {
		res.Body = append([]byte(nil), res.Body...)
		out = &res
	})
	return out, err
}

// responsePayload is the MAC'd 'S' payload the listener frames for a
// reply to request ctr.
func responsePayload(s *Session, ctr uint64, status int, contentType string, body []byte) []byte {
	_, frame := responseFrame(nil, s, ctr, &BinResponse{Status: status, ContentType: contentType, Body: body})
	return frame[8:]
}
