// Tests for anonymous sessions: the open-mode handshake negotiates the
// binary wire between endpoints with no identity (over TCP and the
// in-process lane), keeps per-link integrity and replay protection, never
// meets a signed handshake on one link, and ends the moment its provider
// turns signed — no request arriving after that is served anonymously.
package transport

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// callerServer builds a BinServer over auth whose handler records every
// caller it serves and echoes it back.
func callerServer(auth SessionAuth) (*BinServer, func() []string) {
	var mu sync.Mutex
	var callers []string
	s := NewBinServer(auth)
	s.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
		mu.Lock()
		callers = append(callers, caller)
		mu.Unlock()
		return &BinResponse{Status: http.StatusOK, ContentType: "text/plain", Body: []byte("caller=" + caller)}
	}))
	return s, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), callers...)
	}
}

// registerLane publishes srv under an in-process authority for the test.
func registerLane(t *testing.T, authority string, srv *BinServer) string {
	t.Helper()
	RegisterLocal(authority, srv)
	t.Cleanup(func() { UnregisterLocal(authority) })
	return authority
}

func TestAnonymousSessionsNegotiateBinary(t *testing.T) {
	for _, lane := range []string{"tcp", "local"} {
		t.Run(lane, func(t *testing.T) {
			srv, served := callerServer(nil)
			defer srv.Close()
			authority := "anon-open.test:1"
			if lane == "tcp" {
				authority = serveTCP(t, srv)
			} else {
				registerLane(t, authority, srv)
			}
			d := NewDialer(nil)
			defer d.Close()
			for i := 0; i < 3; i++ {
				res, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/plain", "", []byte("x"))
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Body) != "caller=" {
					t.Fatalf("exchange %d body = %q, want an anonymous caller", i, res.Body)
				}
			}
			st := d.WireStatsSnapshot()[authority]
			if st.Protocol != "binary" || st.Handshakes != 1 || st.Downgrades != 0 {
				t.Fatalf("open↔open link = %+v, want binary after one handshake", st)
			}
			if got := served(); len(got) != 3 {
				t.Fatalf("served %d requests, want 3", len(got))
			}
		})
	}
}

// TestAnonymousSessionIntegrity: an anonymous session still MACs every
// frame and enforces its counters — what it protects, as DESIGN §16
// states: per-link integrity and replay, not identity.
func TestAnonymousSessionIntegrity(t *testing.T) {
	hc, err := NewAnonSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	accept, server, err := AcceptAnonSession(hc.Hello(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	client, err := hc.Finish(accept)
	if err != nil {
		t.Fatal(err)
	}
	if client.ID != server.ID || client.Peer != "" || server.Peer != "" || !client.Anonymous() || !server.Anonymous() {
		t.Fatalf("sessions %+v / %+v: want matching anonymous sessions", client, server)
	}
	if got := server.Expiry.Sub(server.Established); got != time.Minute {
		t.Fatalf("listener lifetime = %v, want 1m", got)
	}

	payload := encodeRequest(nil, client, "/uddi", "text/xml", "", []byte("<find/>"))
	if _, err := decodeRequest(server, payload); err != nil {
		t.Fatalf("genuine frame rejected: %v", err)
	}
	if _, err := decodeRequest(server, payload); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Fatalf("replayed frame = %v, want counter refusal", err)
	}
	bad := encodeRequest(nil, client, "/uddi", "text/xml", "", []byte("<find/>"))
	bad[len(bad)-macSize-2] ^= 0x01
	if _, err := decodeRequest(server, bad); err == nil || !strings.Contains(err.Error(), "MAC") {
		t.Fatalf("tampered frame = %v, want MAC refusal", err)
	}

	// A third party's keys do not verify this link's frames.
	hc2, _ := NewAnonSessionClient()
	accept2, _, err := AcceptAnonSession(hc2.Hello(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	other, err := hc2.Finish(accept2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRequest(server, encodeRequest(nil, other, "/uddi", "", "", nil)); err == nil {
		t.Fatal("frame keyed by another session verified")
	}
}

// TestSessionModeMismatchFallsBack: an anonymous dialer and a signed
// listener (or the reverse) never share a session; the dialer falls back
// to SOAP/HTTP, where each side's own rules apply.
func TestSessionModeMismatchFallsBack(t *testing.T) {
	cases := []struct {
		name     string
		dialer   SessionAuth
		listener SessionAuth
	}{
		{"open dialer, signed listener", Anonymous, &fakeAuth{home: "listener"}},
		{"signed dialer, open listener", &fakeAuth{home: "dialer"}, Anonymous},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, served := callerServer(tc.listener)
			defer srv.Close()
			authority := serveTCP(t, srv)
			d := &Dialer{Session: tc.dialer, Binary: true}
			defer d.Close()
			_, err := exchangeCopy(d, context.Background(), "http://"+authority+"/uddi", "text/plain", "", []byte("x"))
			if !errors.Is(err, ErrBinaryUnavailable) {
				t.Fatalf("mismatched handshake = %v, want ErrBinaryUnavailable", err)
			}
			if p := d.ProtocolFor("http://" + authority + "/"); p != "soap" {
				t.Fatalf("ProtocolFor = %q, want soap", p)
			}
			if got := served(); len(got) != 0 {
				t.Fatalf("listener served %v across a mode mismatch", got)
			}
		})
	}
}

// modalAuth is a provider that runs anonymous handshakes until its signed
// flag is set, then the fake signed ones — an identity.Auth gaining an
// identity at runtime, in miniature.
type modalAuth struct {
	signed atomic.Bool
	fake   *fakeAuth
}

func (m *modalAuth) SessionSigned() bool { return m.signed.Load() }

func (m *modalAuth) NewSessionClient() (SessionClient, error) {
	if m.signed.Load() {
		return m.fake.NewSessionClient()
	}
	return NewAnonSessionClient()
}

func (m *modalAuth) AcceptSession(hello []byte) ([]byte, *Session, error) {
	if !m.signed.Load() {
		return AcceptAnonSession(hello, time.Hour)
	}
	if IsAnonHello(hello) {
		return nil, nil, errors.New("modal: anonymous hello refused once signed")
	}
	return m.fake.AcceptSession(hello)
}

func (m *modalAuth) NoteSessionEnd(*Session, bool) {}

// TestSignedSwitchEndsAnonymousSessions pools an anonymous link, turns
// the provider signed, and reuses the link: the request is either
// re-handshaken signed (both sides switched) or refused (only the
// listener switched) — never served on the anonymous session.
func TestSignedSwitchEndsAnonymousSessions(t *testing.T) {
	for _, lane := range []string{"tcp", "local"} {
		for _, both := range []bool{true, false} {
			name := lane + "/listener only"
			if both {
				name = lane + "/both sides"
			}
			t.Run(name, func(t *testing.T) {
				listener := &modalAuth{fake: &fakeAuth{home: "listener"}}
				dialerAuth := SessionAuth(Anonymous)
				if both {
					dialerAuth = &modalAuth{fake: &fakeAuth{home: "dialer"}}
				}
				srv, served := callerServer(listener)
				defer srv.Close()
				authority := "anon-switch.test:1"
				if lane == "tcp" {
					authority = serveTCP(t, srv)
				} else {
					registerLane(t, authority, srv)
				}
				d := &Dialer{Session: dialerAuth, Binary: true}
				defer d.Close()
				url := "http://" + authority + "/uddi"
				if _, err := exchangeCopy(d, context.Background(), url, "text/plain", "", []byte("x")); err != nil {
					t.Fatal(err)
				}

				listener.signed.Store(true)
				if m, ok := dialerAuth.(*modalAuth); ok {
					m.signed.Store(true)
				}
				res, err := exchangeCopy(d, context.Background(), url, "text/plain", "", []byte("y"))
				st := d.WireStatsSnapshot()[authority]
				if both {
					if err != nil || string(res.Body) != "caller=dialer" {
						t.Fatalf("after the switch: %v %v, want a signed re-handshake", res, err)
					}
					if st.Protocol != "binary" || st.Rekeys != 1 {
						t.Fatalf("link = %+v, want binary with one rekey", st)
					}
				} else {
					if !errors.Is(err, ErrBinaryUnavailable) {
						t.Fatalf("anonymous request after the switch = %v %v, want a refusal", res, err)
					}
					if st.Protocol != "soap" || st.Downgrades != 1 {
						t.Fatalf("link = %+v, want a downgrade to soap", st)
					}
				}
				got := served()
				if len(got) == 0 || got[0] != "" {
					t.Fatalf("served callers %q: the first request should be anonymous", got)
				}
				for _, c := range got[1:] {
					if c == "" {
						t.Fatalf("served callers %q: a request after the switch was served anonymously", got)
					}
				}
			})
		}
	}
}
