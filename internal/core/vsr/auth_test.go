// Authentication on the repository faces: once an identity is
// installed, every wire operation — snapshot inquiries, the change
// watch, batched publication — needs a signature from a trusted home,
// /uddi stays private to the home's own identity, and the /peer face
// serves each trusted caller its own filtered view.
package vsr

import (
	"context"
	"errors"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// authFixture is a repository enforcing authentication as home-a, plus
// identities for the home itself, a trusted peer and a stranger.
type authFixture struct {
	srv      *Server
	auth     *identity.Auth
	ownID    *identity.Identity
	peerAuth *identity.Auth // trusted peer home-b's context
	strange  *identity.Auth // untrusted home-x's context
}

func newAuthFixture(t *testing.T) *authFixture {
	t.Helper()
	mk := func(home string) (*identity.Auth, *identity.Identity) {
		id, err := identity.Generate(home)
		if err != nil {
			t.Fatal(err)
		}
		a := identity.NewAuth(home)
		if err := a.SetIdentity(id); err != nil {
			t.Fatal(err)
		}
		return a, id
	}
	auth, ownID := mk("home-a")
	peerAuth, peerID := mk("home-b")
	strange, _ := mk("home-x")
	if err := auth.Trust("home-b", peerID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := peerAuth.Trust("home-a", ownID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// home-x trusts home-a — one-sided trust must not be enough.
	if err := strange.Trust("home-a", ownID.PublicKey()); err != nil {
		t.Fatal(err)
	}
	srv, err := StartServerAuth("127.0.0.1:0", auth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &authFixture{srv: srv, auth: auth, ownID: ownID, peerAuth: peerAuth, strange: strange}
}

// client builds a VSR client for the registry face signed by the given
// context (nil = unsigned). Signed clients keep binary negotiation off,
// so their requests ride signed SOAP/HTTP.
func (f *authFixture) client(url string, as *identity.Auth) *VSR {
	v := New(url)
	if as != nil {
		d := transport.NewDialer(as)
		d.SetBinary(false)
		v.SetDialer(d)
	}
	return v
}

func TestAuthRegistryRejectsUnsignedOps(t *testing.T) {
	f := newAuthFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	anon := f.client(f.srv.URL(), nil)

	// Snapshot inquiry.
	if _, err := anon.Find(ctx, Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned find: %v, want ErrUnauthenticated", err)
	}
	// Single and batched publication.
	desc := service.Description{
		ID: "test:svc", Name: "svc", Middleware: "test",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{{Name: "Ping", Output: service.KindVoid}}},
	}
	if _, err := anon.Register(ctx, desc, "http://gw/1"); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned register: %v, want ErrUnauthenticated", err)
	}
	if _, err := anon.RegisterAll(ctx, []Registration{{Desc: desc, Endpoint: "http://gw/1"}}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned save_services: %v, want ErrUnauthenticated", err)
	}
	// The watch stream reports Down with the typed cause instead of
	// silently retrying.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	ch, err := anon.Watch(wctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-ch:
		if d.Op != DeltaDown || !errors.Is(d.Err, service.ErrUnauthenticated) {
			t.Errorf("unsigned watch delta = %+v, want Down with ErrUnauthenticated", d)
		}
	case <-time.After(5 * time.Second):
		t.Error("unsigned watch never reported Down")
	}
}

func TestAuthRegistryPrivateToOwnHome(t *testing.T) {
	f := newAuthFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The home's own identity uses /uddi normally.
	own := f.client(f.srv.URL(), f.auth)
	desc := service.Description{
		ID: "test:svc", Name: "svc", Middleware: "test",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{{Name: "Ping", Output: service.KindVoid}}},
	}
	if _, err := own.Register(ctx, desc, "http://gw/1"); err != nil {
		t.Fatalf("own-home register: %v", err)
	}
	if _, err := own.Find(ctx, Query{}); err != nil {
		t.Fatalf("own-home find: %v", err)
	}

	// A trusted peer is still refused on the read-write face...
	peer := f.client(f.srv.URL(), f.peerAuth)
	if _, err := peer.Find(ctx, Query{}); !errors.Is(err, service.ErrForbidden) {
		t.Errorf("trusted peer on /uddi: %v, want ErrForbidden", err)
	}
	// ...and an untrusted home is refused everywhere, trust being
	// required on the receiving side (one-sided trust is not enough).
	strange := f.client(f.srv.PeerURL(), f.strange)
	if _, err := strange.Find(ctx, Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("untrusted home on /peer: %v, want ErrUnauthenticated", err)
	}
}

func TestAuthResponseVerificationRejectsUntrustedServer(t *testing.T) {
	// home-x calls a server it *does* trust... but through a context that
	// does not trust home-a's key: the response must fail verification.
	f := newAuthFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A fresh context for home-b that signs (so the server accepts it)
	// but has no trust entry for home-a.
	id, err := identity.Generate("home-b")
	if err != nil {
		t.Fatal(err)
	}
	// The server must accept this home-b — re-trust the new key.
	if err := f.auth.Trust("home-b", id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	oneway := identity.NewAuth("home-b")
	if err := oneway.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	v := f.client(f.srv.PeerURL(), oneway)
	if _, err := v.Find(ctx, Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("response from untrusted server: %v, want ErrUnauthenticated", err)
	}
}
