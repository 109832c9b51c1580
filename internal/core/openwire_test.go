// The wire across trust modes: open homes negotiate the binary fast path
// over anonymous sessions, a mode mismatch (open↔secured either way)
// falls back to SOAP/HTTP where each side's own rules decide, and
// installing an identity at runtime ends every anonymous session — the
// next request is re-handshaken signed or refused, never served
// anonymously.
package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// newOpenFed builds a home federation with no identity exporting the
// echo service.
func newOpenFed(t *testing.T, home string) (*Federation, *Network) {
	t.Helper()
	fed, err := NewHomeFederation(home)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	return fed, exportEcho(t, fed)
}

// gatewayLink is from's wire state towards to's gateway.
func gatewayLink(from *Federation, to *Network) transport.LinkStats {
	return from.WireStats()[strings.TrimPrefix(to.Gateway().BaseURL(), "http://")]
}

// callDirect calls test:svc on target's gateway straight from caller's
// gateway, with no repository lookup: the call needs no peering, so it
// works across trust modes that refuse each other's registries.
func callDirect(ctx context.Context, caller, target *Network, op string) (service.Value, error) {
	remote := vsr.Remote{Desc: echoDesc, Endpoint: target.Gateway().EndpointFor(echoDesc.ID)}
	return caller.Gateway().CallRemote(ctx, remote, op, nil)
}

func TestOpenHomesNegotiateBinary(t *testing.T) {
	a, aNet := newOpenFed(t, "home-a")
	b, _ := newOpenFed(t, "home-b")
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	waitCallable(t, b, "home-a/test:svc")
	ctx := context.Background()
	if v, err := b.Call(ctx, "home-a/test:svc", "Caller"); err != nil || v.Str() != "" {
		t.Fatalf("open call = %v %v, want an anonymous caller", v, err)
	}
	l := gatewayLink(b, aNet)
	if l.Protocol != "binary" || l.Handshakes == 0 {
		t.Fatalf("home-b → home-a gateway = %+v, want binary after a handshake", l)
	}
	if len(b.PeerStatus()) == 0 {
		t.Fatal("home-b reports no peer link")
	}
	for url, st := range b.PeerStatus() {
		if st.Proto != "binary" {
			t.Fatalf("peer link %s rides %q, want binary", url, st.Proto)
		}
	}
	// The SOAP leg still answers identically.
	b.SetBinaryWire(false)
	if v, err := b.Call(ctx, "home-a/test:svc", "Where"); err != nil || v.Str() != "home-a" {
		t.Fatalf("SOAP leg = %v %v", v, err)
	}
}

func TestSessionModeMismatchFallsBackToSOAP(t *testing.T) {
	ctx := context.Background()

	t.Run("open dialer, secured listener", func(t *testing.T) {
		secured, _ := newSecureFed(t, "home-s")
		sNet := secured.Network("net")
		_, oNet := newOpenFed(t, "home-o")
		before := sNet.Gateway().CallStats().Inbound
		if _, err := callDirect(ctx, oNet, sNet, "Where"); !errors.Is(err, service.ErrUnauthenticated) {
			t.Fatalf("open caller on a secured gateway = %v, want ErrUnauthenticated", err)
		}
		if p := oNet.Gateway().Dialer().ProtocolFor(sNet.Gateway().BaseURL()); p != "soap" {
			t.Fatalf("open dialer negotiated %q with a secured gateway, want soap", p)
		}
		if got := sNet.Gateway().CallStats().Inbound; got != before {
			t.Fatalf("secured gateway served %d calls from an open home", got-before)
		}
		// The registry refuses the open dialer the same way.
		c := &uddi.Client{URL: secured.VSRURL(), Dialer: transport.NewDialer(nil)}
		if _, err := c.Find(ctx, uddi.Query{}); !errors.Is(err, service.ErrUnauthenticated) {
			t.Fatalf("open dialer on a secured registry = %v, want ErrUnauthenticated", err)
		}
		if p := c.Dialer.ProtocolFor(secured.VSRURL()); p != "soap" {
			t.Fatalf("open dialer negotiated %q with a secured registry, want soap", p)
		}
	})

	t.Run("secured dialer, open listener", func(t *testing.T) {
		secured, _ := newSecureFed(t, "home-s")
		sNet := secured.Network("net")
		_, oNet := newOpenFed(t, "home-o")
		// As before anonymous sessions existed: the signed request is
		// served over SOAP, and the unsigned answer fails verification.
		if _, err := callDirect(ctx, sNet, oNet, "Where"); !errors.Is(err, service.ErrUnauthenticated) {
			t.Fatalf("secured caller on an open gateway = %v, want ErrUnauthenticated", err)
		}
		if p := sNet.Gateway().Dialer().ProtocolFor(oNet.Gateway().BaseURL()); p != "soap" {
			t.Fatalf("secured dialer negotiated %q with an open gateway, want soap", p)
		}
	})
}

// TestSetIdentityEndsAnonymousSessions pools anonymous links between two
// open homes, then installs identities at runtime.
func TestSetIdentityEndsAnonymousSessions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("listener secured alone: refused", func(t *testing.T) {
		a, aNet := newOpenFed(t, "home-a")
		_, bNet := newOpenFed(t, "home-b")
		if v, err := callDirect(ctx, bNet, aNet, "Caller"); err != nil || v.Str() != "" {
			t.Fatalf("open call = %v %v", v, err)
		}
		if p := bNet.Gateway().Dialer().ProtocolFor(aNet.Gateway().BaseURL()); p != "binary" {
			t.Fatalf("open homes negotiated %q, want binary", p)
		}
		before := aNet.Gateway().CallStats().Inbound
		aID, err := identity.Generate("home-a")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetIdentity(aID); err != nil {
			t.Fatal(err)
		}
		if _, err := callDirect(ctx, bNet, aNet, "Caller"); !errors.Is(err, service.ErrUnauthenticated) {
			t.Fatalf("anonymous call after SetIdentity = %v, want ErrUnauthenticated", err)
		}
		if got := aNet.Gateway().CallStats().Inbound; got != before {
			t.Fatalf("home-a served %d anonymous calls after installing its identity", got-before)
		}
	})

	t.Run("both secured and trusting: re-handshaken signed", func(t *testing.T) {
		a, aNet := newOpenFed(t, "home-a")
		b, bNet := newOpenFed(t, "home-b")
		if v, err := callDirect(ctx, bNet, aNet, "Caller"); err != nil || v.Str() != "" {
			t.Fatalf("open call = %v %v", v, err)
		}
		aID, err := identity.Generate("home-a")
		if err != nil {
			t.Fatal(err)
		}
		bID, err := identity.Generate("home-b")
		if err != nil {
			t.Fatal(err)
		}
		trustFeds(t, a, aID, b, bID)
		if err := a.SetIdentity(aID); err != nil {
			t.Fatal(err)
		}
		if err := b.SetIdentity(bID); err != nil {
			t.Fatal(err)
		}
		v, err := callDirect(ctx, bNet, aNet, "Caller")
		if err != nil || v.Str() != "home-b" {
			t.Fatalf("call after both homes secured = %v %v, want it served to home-b", v, err)
		}
		l := gatewayLink(b, aNet)
		if l.Protocol != "binary" || l.Rekeys == 0 || l.Downgrades != 0 {
			t.Fatalf("home-b → home-a gateway = %+v, want binary, rekeyed in place", l)
		}
	})
}
