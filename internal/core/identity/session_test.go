// Tests for session-keyed authentication: the signed mutual handshake
// behind the binary fast path. The transcript is verified end to end by
// running both halves and exchanging MAC'd frames through the resulting
// sessions; refusal paths (untrusted peer, tampered blobs, replayed
// hello, skewed timestamps) must all land on ErrUnauthenticated, exactly
// like their per-operation counterparts.
package identity

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// handshake runs one full dialer↔listener exchange between two Auths.
func handshake(t *testing.T, dialer, listener *Auth) (client, server *transport.Session) {
	t.Helper()
	hc, err := dialer.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	accept, server, err := listener.AcceptSession(hc.Hello())
	if err != nil {
		t.Fatal(err)
	}
	client, err = hc.Finish(accept)
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestSessionHandshakeEstablishes(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)

	client, server := handshake(t, a, b)
	if client.Peer != "apartment" || server.Peer != "cottage" {
		t.Fatalf("peers = %q / %q, want apartment / cottage", client.Peer, server.Peer)
	}
	if client.ID != server.ID || client.ID == "" {
		t.Fatalf("session IDs %q / %q must match and be non-empty", client.ID, server.ID)
	}
	if got := server.Expiry.Sub(server.Established); got != defaultSessionTTL {
		t.Fatalf("session lifetime = %v, want %v", got, defaultSessionTTL)
	}
}

// TestSessionKeysAgree proves the two derivations meet: frames MAC'd by
// the dialer verify on the listener and vice versa, exercised through the
// transport's real frame path so a key-orientation regression cannot
// hide.
func TestSessionKeysAgree(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)

	srv := transport.NewBinServer(b)
	srv.Handle("/", transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
		return &transport.BinResponse{Status: 200, Body: []byte(caller + ":" + string(req.Body))}
	}))
	defer srv.Close()
	transport.RegisterLocal("keysagree.test:1", srv)
	defer transport.UnregisterLocal("keysagree.test:1")

	d := transport.NewDialer(a)
	defer d.Close()
	var body string
	err := d.Exchange(context.Background(), "http://keysagree.test:1/x", "text/plain", "", []byte("ping"),
		func(res transport.BinResult) { body = string(res.Body) })
	if err != nil {
		t.Fatal(err)
	}
	// The caller the handler saw is the session-authenticated home — the
	// same principal per-operation signatures would have established.
	if body != "cottage:ping" {
		t.Fatalf("exchange body = %q, want cottage:ping", body)
	}
}

func TestSessionRefusesUntrustedDialer(t *testing.T) {
	a, _ := testAuth(t, "cottage")
	b, _ := testAuth(t, "apartment") // b does not trust cottage
	hc, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = b.AcceptSession(hc.Hello())
	if !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("untrusted hello = %v, want ErrUnauthenticated", err)
	}
}

func TestSessionRefusesUntrustedListener(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, _ := testAuth(t, "apartment")
	// b trusts a, but a does not trust b: the dialer must reject the
	// accept even though the listener was happy.
	if err := b.Trust(aID.Home(), aID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	hc, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	accept, _, err := b.AcceptSession(hc.Hello())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Finish(accept); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("accept from untrusted listener = %v, want ErrUnauthenticated", err)
	}
}

func TestSessionHelloReplayRejected(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)
	hc, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	hello := hc.Hello()
	if _, _, err := b.AcceptSession(hello); err != nil {
		t.Fatal(err)
	}
	// The same recorded hello offered again must trip the nonce cache.
	_, _, err = b.AcceptSession(hello)
	if !errors.Is(err, service.ErrUnauthenticated) || !strings.Contains(err.Error(), "replayed") {
		t.Fatalf("replayed hello = %v, want replay rejection", err)
	}
}

func TestSessionHelloSkewRejected(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)
	b.setClock(func() time.Time { return time.Now().Add(maxSkew + time.Minute) })
	hc, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AcceptSession(hc.Hello()); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("skewed hello = %v, want ErrUnauthenticated", err)
	}
}

func TestSessionTamperedBlobsRejected(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)

	hc, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	hello := string(hc.Hello())
	// Flip the claimed home: the signature no longer binds.
	forged := strings.Replace(hello, "cottage", "apartment", 1)
	if _, _, err := b.AcceptSession([]byte(forged)); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("forged hello = %v, want ErrUnauthenticated", err)
	}

	accept, _, err := b.AcceptSession(hc.Hello())
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the advertised lifetime: the accept signature covers it.
	fields := strings.Split(string(accept), "\n")
	fields[3] = "999999999"
	if _, err := hc.Finish([]byte(strings.Join(fields, "\n"))); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("tampered accept = %v, want ErrUnauthenticated", err)
	}
}

func TestSessionAcceptCannotAnswerAnotherHandshake(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)
	// Two concurrent handshakes; the accept for the first must not
	// complete the second (the accept signature binds the hello's nonce
	// and ephemeral key).
	hc1, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	hc2, err := a.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	accept1, _, err := b.AcceptSession(hc1.Hello())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc2.Finish(accept1); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("cross-handshake accept = %v, want ErrUnauthenticated", err)
	}
}

func TestSessionTTLOverride(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)
	b.SetSessionTTL(time.Second)
	_, server := handshake(t, a, b)
	if got := server.Expiry.Sub(server.Established); got != time.Second {
		t.Fatalf("overridden lifetime = %v, want 1s", got)
	}
	b.SetSessionTTL(0) // restore default
	_, server = handshake(t, a, b)
	if got := server.Expiry.Sub(server.Established); got != defaultSessionTTL {
		t.Fatalf("restored lifetime = %v, want %v", got, defaultSessionTTL)
	}
}

func TestSessionLifecycleAudited(t *testing.T) {
	a, aID := testAuth(t, "cottage")
	b, bID := testAuth(t, "apartment")
	trustBoth(t, a, aID, b, bID)
	log, err := audit.New(audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	b.SetRecorder(audit.WithFace(log, "auth", "apartment"))

	_, server := handshake(t, a, b)
	b.NoteSessionEnd(server, true)
	_, server = handshake(t, a, b)
	b.NoteSessionEnd(server, false)

	types := map[audit.Type]int{}
	for _, rec := range log.Tail(16, "") {
		types[rec.Type]++
	}
	if types[audit.SessionEstablish] != 2 || types[audit.SessionRekey] != 1 || types[audit.SessionExpire] != 1 {
		t.Fatalf("audited lifecycle = %v, want 2 establishes, 1 rekey, 1 expire", types)
	}
}

// TestSessionNeedsIdentity: an authenticated session needs an identity.
// Without one an Auth runs only anonymous handshakes — sessions with no
// peer — and refuses signed hellos; once one is installed it refuses
// anonymous hellos, so the two kinds never meet on one link.
func TestSessionNeedsIdentity(t *testing.T) {
	open := NewAuth("cottage") // no identity installed
	if open.SessionSigned() {
		t.Fatal("open-mode Auth claims signed sessions")
	}
	other := NewAuth("apartment")
	client, server := handshake(t, open, other)
	if client.Peer != "" || server.Peer != "" || !client.Anonymous() || !server.Anonymous() {
		t.Fatalf("open handshake authenticated someone: peers %q / %q", client.Peer, server.Peer)
	}
	if client.ID != server.ID {
		t.Fatalf("anonymous session IDs %q / %q differ", client.ID, server.ID)
	}
	if _, _, err := open.AcceptSession([]byte("x")); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("garbage hello on open Auth = %v, want ErrUnauthenticated", err)
	}

	secured, securedID := testAuth(t, "bungalow")
	if err := open.Trust(securedID.Home(), securedID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	signed, err := secured.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := open.AcceptSession(signed.Hello()); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("signed hello on open Auth = %v, want ErrUnauthenticated", err)
	}
	anon, err := open.NewSessionClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := secured.AcceptSession(anon.Hello()); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("anonymous hello on secured Auth = %v, want ErrUnauthenticated", err)
	}
}
