// Binary-wire behaviour at the federation level: the three-way
// equivalence table (loopback vs binary fast path vs SOAP fallback must
// produce identical results and identical typed errors), the downgrade
// paths (handshake refusal, session expiry mid-stream, version-mismatch
// fallback) and the proof that a mid-session downgrade never drops a
// replication link's watch cursor.
package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// newSecureFed builds a home federation with a generated identity and an
// exported echo service (see exportEcho).
func newSecureFed(t *testing.T, home string) (*Federation, *identity.Identity) {
	t.Helper()
	id, err := identity.Generate(home)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewHomeFederation(home)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	exportEcho(t, fed)
	return fed, id
}

// echoDesc is the test:svc echo service: Where answers the serving home,
// Echo its argument, Caller the caller home the gateway verified ("" for
// an anonymous caller), and Hang blocks until the call's context ends.
var echoDesc = service.Description{
	ID: "test:svc", Name: "test:svc", Middleware: "test",
	Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
		{Name: "Where", Output: service.KindString},
		{Name: "Echo", Inputs: []service.Parameter{{Name: "s", Type: service.KindString}}, Output: service.KindString},
		{Name: "Caller", Output: service.KindString},
		{Name: "Hang", Output: service.KindString},
	}},
}

// exportEcho adds a network to fed and exports test:svc on it.
func exportEcho(t *testing.T, fed *Federation) *Network {
	t.Helper()
	n, err := fed.AddNetwork("net")
	if err != nil {
		t.Fatal(err)
	}
	inv := service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		switch op {
		case "Where":
			return service.StringValue(fed.Home()), nil
		case "Echo":
			return args[0], nil
		case "Caller":
			return service.StringValue(identity.CallerFromContext(ctx)), nil
		case "Hang":
			<-ctx.Done()
			return service.Value{}, ctx.Err()
		}
		return service.Value{}, service.ErrNoSuchOperation
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Gateway().Export(ctx, echoDesc, inv); err != nil {
		t.Fatal(err)
	}
	return n
}

// trustFeds wires mutual trust between two federations.
func trustFeds(t *testing.T, a *Federation, aID *identity.Identity, b *Federation, bID *identity.Identity) {
	t.Helper()
	if err := a.TrustHome(bID.Home(), bID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.TrustHome(aID.Home(), aID.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

// waitCallable polls until the scoped service answers from fed.
func waitCallable(t *testing.T, fed *Federation, svcID string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for {
		if _, err := fed.Call(ctx, svcID, "Where"); err == nil {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("%s never became callable from %s", svcID, fed.Home())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// hasProtocol reports whether any link in stats negotiated proto.
func hasProtocol(stats transport.WireStats, proto string) bool {
	for _, ls := range stats {
		if ls.Protocol == proto {
			return true
		}
	}
	return false
}

// TestBinaryWireThreeWayEquivalence drives the same logical calls over
// the in-process loopback, the binary fast path and the SOAP fallback,
// and holds all three to identical results and identical typed errors.
func TestBinaryWireThreeWayEquivalence(t *testing.T) {
	a, aID := newSecureFed(t, "home-a")
	b, bID := newSecureFed(t, "home-b")
	c, cID := newSecureFed(t, "home-c")
	trustFeds(t, a, aID, b, bID)
	trustFeds(t, a, aID, c, cID)
	a.SetLoopback(true)
	// home-c never negotiates: the mixed-mode peer that stays on SOAP.
	c.SetBinaryWire(false)
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if err := c.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	waitCallable(t, b, "home-a/test:svc")
	waitCallable(t, c, "home-a/test:svc")

	// paths: the same logical operation through each wire.
	paths := []struct {
		name string
		fed  *Federation
		id   string
	}{
		{"loopback", a, "test:svc"},
		{"binary", b, "home-a/test:svc"},
		{"soap", c, "home-a/test:svc"},
	}

	// Strings XML cannot carry untouched must round-trip identically on
	// every path (the SOAP path escapes them; the binary path does not
	// need to — both must hand back the same bytes).
	hostile := "<tag attr=\"x\">&amp;]]> line\nbreak\ttab é☃</tag>"
	for _, p := range paths {
		t.Run("echo/"+p.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			got, err := p.fed.Call(ctx, p.id, "Echo", service.StringValue(hostile))
			if err != nil {
				t.Fatal(err)
			}
			if got.Str() != hostile {
				t.Fatalf("echo over %s = %q, want %q", p.name, got.Str(), hostile)
			}
		})
	}

	// An unknown operation must classify as the same typed error on
	// every path — the fault code/detail mapping is shared.
	for _, p := range paths {
		t.Run("fault/"+p.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := p.fed.Call(ctx, p.id, "Where", service.StringValue("unexpected"))
			if !errors.Is(err, service.ErrBadArgument) {
				t.Fatalf("bad arity over %s = %v, want ErrBadArgument", p.name, err)
			}
		})
	}

	// Context cancellation surfaces as the context's error everywhere and
	// must never be mistaken for a wire failure (no downgrade).
	for _, p := range paths {
		t.Run("cancel/"+p.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			_, err := p.fed.Call(ctx, p.id, "Hang")
			if err == nil {
				t.Fatal("Hang returned without error")
			}
			if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "cancel") {
				t.Fatalf("cancellation over %s = %v, want a context error", p.name, err)
			}
		})
	}

	// After everything above, home-b must still be on binary (no call in
	// the table was allowed to downgrade it) and home-c's link toward
	// home-a must never have negotiated. (WireStats would also show
	// home-c's gateway talking binary to its *own* repository from before
	// the wire was disabled; the mixed-mode property is per peer link.)
	if !hasProtocol(b.WireStats(), "binary") {
		t.Fatalf("home-b wire stats %v: binary negotiation lost", b.WireStats())
	}
	for url, st := range c.PeerStatus() {
		if st.Proto != "soap" {
			t.Fatalf("home-c link %s proto = %q, want soap", url, st.Proto)
		}
	}

	// A service ACL refusal must be the same typed error over binary and
	// SOAP. (Loopback is exempt: an ACL governs cross-home callers only.)
	a.SetServiceACL(identity.ACL{Deny: []identity.Rule{{Caller: "*", Service: "test:*"}}})
	for _, p := range paths[1:] {
		t.Run("forbidden/"+p.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := p.fed.Call(ctx, p.id, "Where")
			if !errors.Is(err, service.ErrForbidden) {
				t.Fatalf("ACL refusal over %s = %v, want ErrForbidden", p.name, err)
			}
		})
	}
}

// TestBinaryWirePrivateFaceRefusals drives home-a's own-home-only /uddi
// face from another home over both wires: the session-authenticated
// binary deny and the signature-authenticated HTTP deny must decode to
// the identical typed error. An untrusted caller must land on
// ErrUnauthenticated the same way — its handshake is refused, the call
// falls back to SOAP, and the signature check refuses it there too.
func TestBinaryWirePrivateFaceRefusals(t *testing.T) {
	a, aID := newSecureFed(t, "home-a")
	b, bID := newSecureFed(t, "home-b")
	trustFeds(t, a, aID, b, bID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Trusted foreign home, binary-capable dialer: the session handshake
	// succeeds, then the own-home boundary refuses through the binary
	// face. ErrForbidden, exactly as the HTTP middleware words it.
	binDialer := transport.NewDialer(b.Auth())
	defer binDialer.Close()
	binClient := &uddi.Client{URL: a.VSRURL(), Dialer: binDialer}
	if _, err := binClient.Find(ctx, uddi.Query{}); !errors.Is(err, service.ErrForbidden) {
		t.Fatalf("binary /uddi from foreign home = %v, want ErrForbidden", err)
	}
	if p := binDialer.ProtocolFor(a.VSRURL()); p != "binary" {
		t.Fatalf("refusal rode %q, want binary (the deny itself must not downgrade)", p)
	}

	// Same principal over plain signed HTTP: identical typed error.
	soapDialer := transport.NewDialer(b.Auth())
	soapDialer.Binary = false
	defer soapDialer.Close()
	soapClient := &uddi.Client{URL: a.VSRURL(), Dialer: soapDialer}
	if _, err := soapClient.Find(ctx, uddi.Query{}); !errors.Is(err, service.ErrForbidden) {
		t.Fatalf("SOAP /uddi from foreign home = %v, want ErrForbidden", err)
	}

	// Untrusted home: handshake refused, downgrade to SOAP, signature
	// refused there — one typed error for the caller, on either wire.
	dID, err := identity.Generate("home-d")
	if err != nil {
		t.Fatal(err)
	}
	dAuth := identity.NewAuth("home-d")
	if err := dAuth.SetIdentity(dID); err != nil {
		t.Fatal(err)
	}
	if err := dAuth.Trust(aID.Home(), aID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	dDialer := transport.NewDialer(dAuth)
	defer dDialer.Close()
	dClient := &uddi.Client{URL: a.VSRURL(), Dialer: dDialer}
	if _, err := dClient.Find(ctx, uddi.Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("untrusted /uddi call = %v, want ErrUnauthenticated", err)
	}
	if p := dDialer.ProtocolFor(a.VSRURL()); p != "soap" {
		t.Fatalf("untrusted dialer protocol = %q, want soap (refused handshake downgrades)", p)
	}
}

// junkSession is a SessionAuth whose hellos no listener understands — a
// stand-in for a wire-protocol version mismatch.
type junkSession struct{}

func (junkSession) SessionSigned() bool { return true }
func (junkSession) NewSessionClient() (transport.SessionClient, error) {
	return junkClient{}, nil
}
func (junkSession) AcceptSession([]byte) ([]byte, *transport.Session, error) {
	return nil, nil, errors.New("junk: no sessions here")
}
func (junkSession) NoteSessionEnd(*transport.Session, bool) {}

type junkClient struct{}

func (junkClient) Hello() []byte { return []byte("speaking-some-future-protocol/v9") }
func (junkClient) Finish([]byte) (*transport.Session, error) {
	return nil, errors.New("junk: cannot finish")
}

// TestBinaryWireVersionMismatchFallsBack sends a handshake the listener
// cannot parse; the application call must still succeed — transparently,
// over SOAP — and the authority must be marked downgraded.
func TestBinaryWireVersionMismatchFallsBack(t *testing.T) {
	a, _ := newSecureFed(t, "home-a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	d := &transport.Dialer{Creds: a.Auth(), Session: junkSession{}, Binary: true}
	defer d.Close()
	client := &uddi.Client{URL: a.VSRURL(), Dialer: d}
	entries, err := client.Find(ctx, uddi.Query{})
	if err != nil {
		t.Fatalf("find with mismatched handshake = %v, want transparent SOAP fallback", err)
	}
	if len(entries) == 0 {
		t.Fatal("fallback query returned no services")
	}
	if p := d.ProtocolFor(a.VSRURL()); p != "soap" {
		t.Fatalf("protocol after mismatch = %q, want soap", p)
	}
	st := d.WireStatsSnapshot()
	for _, ls := range st {
		if ls.Protocol != "soap" {
			t.Fatalf("wire stats after mismatch = %+v", st)
		}
	}
}

// TestBinaryWireMidSessionDowngradeKeepsWatchCursor forces an
// established binary replication link back onto SOAP mid-stream (session
// expiry meets a now-disabled binary endpoint) and proves replication
// continues from the same cursor: no resync, imports keep flowing.
func TestBinaryWireMidSessionDowngradeKeepsWatchCursor(t *testing.T) {
	a, aID := newSecureFed(t, "home-a")
	b, bID := newSecureFed(t, "home-b")
	trustFeds(t, a, aID, b, bID)
	// Tight session lifetime so expiry arrives within the test: the
	// listener (home-a) grants the TTL.
	a.Auth().SetSessionTTL(200 * time.Millisecond)
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	waitCallable(t, b, "home-a/test:svc")

	linkProto := func() (proto string, resyncs uint64, imported int) {
		for _, st := range b.PeerStatus() {
			return st.Proto, st.Resyncs, st.Imported
		}
		return "", 0, 0
	}
	proto, _, importedBefore := linkProto()
	if proto != "binary" {
		t.Fatalf("link proto before downgrade = %q, want binary", proto)
	}

	// Disable home-a's binary wire: established sessions keep answering
	// until they expire; the next rekey is refused and the dialer
	// degrades to SOAP.
	a.SetBinaryWire(false)
	// Let the session lifetime lapse so the very next watch round meets
	// an expired session whose rekey is refused.
	time.Sleep(300 * time.Millisecond)

	// Register one more service in home-a; its delta completes the parked
	// watch round, and the round after it triggers the downgrade.
	export := func(id string) {
		t.Helper()
		desc := service.Description{
			ID: id, Name: id, Middleware: "test",
			Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
				{Name: "Where", Output: service.KindString},
			}},
		}
		inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
			return service.StringValue("late"), nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := a.Network("net").Gateway().Export(ctx, desc, inv); err != nil {
			t.Fatal(err)
		}
	}
	export("test:late")
	waitCallable(t, b, "home-a/test:late")

	deadline := time.Now().Add(15 * time.Second)
	proto, resyncs, importedAfter := linkProto()
	for proto != "soap" {
		if time.Now().After(deadline) {
			t.Fatalf("link proto after downgrade = %q, want soap", proto)
		}
		time.Sleep(20 * time.Millisecond)
		proto, resyncs, importedAfter = linkProto()
	}

	// Replication must keep flowing over the degraded wire, from the same
	// cursor: a service exported after the downgrade still arrives.
	export("test:later")
	waitCallable(t, b, "home-a/test:later")
	proto, resyncs, importedAfter = linkProto()
	if proto != "soap" {
		t.Fatalf("link proto after post-downgrade import = %q, want soap", proto)
	}
	if resyncs != 0 {
		t.Fatalf("downgrade cost %d resyncs; the watch cursor must survive", resyncs)
	}
	if importedAfter <= importedBefore {
		t.Fatalf("imports stalled across the downgrade: %d → %d", importedBefore, importedAfter)
	}
	// The link's wire stats recorded the story: at least one downgrade.
	found := false
	for _, ls := range b.WireStats() {
		if ls.Downgrades > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no downgrade recorded in %v", b.WireStats())
	}
}
