// Authentication on the gateway's call paths: signed cross-home calls,
// typed auth faults for strangers, ACL enforcement at the exporting
// home, and loopback-vs-wire equivalence of the home-boundary check.
package vsg

import (
	"context"
	"errors"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
)

// authHome is one home for gateway auth tests: an authenticated
// repository plus one gateway.
type authHome struct {
	auth *identity.Auth
	id   *identity.Identity
	srv  *vsr.Server
	gw   *VSG
}

func newAuthHome(t *testing.T, home string) *authHome {
	t.Helper()
	id, err := identity.Generate(home)
	if err != nil {
		t.Fatal(err)
	}
	auth := identity.NewAuth(home)
	if err := auth.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	srv, err := vsr.StartServerAuth("127.0.0.1:0", auth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	gw := New(home+"-net", srv.URL())
	gw.SetHome(home)
	gw.SetAuth(auth)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return &authHome{auth: auth, id: id, srv: srv, gw: gw}
}

func echoExport(t *testing.T, gw *VSG, id, answer string) {
	t.Helper()
	desc := service.Description{
		ID: id, Name: id, Middleware: "test",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Where", Output: service.KindString},
		}},
	}
	inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue(answer), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Export(ctx, desc, inv); err != nil {
		t.Fatal(err)
	}
}

func TestCrossHomeCallAuthenticated(t *testing.T) {
	a := newAuthHome(t, "home-a")
	b := newAuthHome(t, "home-b")
	// Mutual trust.
	if err := a.auth.Trust("home-b", b.id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.auth.Trust("home-a", a.id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	echoExport(t, a.gw, "test:svc", "at-a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	remote, err := a.gw.Resolve(ctx, "test:svc")
	if err != nil {
		t.Fatal(err)
	}
	// Trusted cross-home call succeeds (different homes → wire path).
	got, err := b.gw.CallRemote(ctx, remote, "Where", nil)
	if err != nil || got.Str() != "at-a" {
		t.Fatalf("trusted cross-home call = (%v, %v), want at-a", got, err)
	}

	// An unsigned caller gets a typed Unauthenticated fault.
	anon := &soap.Client{URL: remote.Endpoint}
	call := soap.Call{Namespace: Namespace("test:svc"), Operation: "Where"}
	_, err = anon.Call(ctx, Namespace("test:svc")+"#Where", call)
	if !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned gateway call: %v, want ErrUnauthenticated", err)
	}
	var re *service.RemoteError
	if !errors.As(err, &re) || re.Code != "Unauthenticated" {
		t.Errorf("unsigned gateway call fault = %v, want RemoteError{Unauthenticated}", err)
	}

	// An untrusted home signing honestly gets the same refusal.
	xid, err := identity.Generate("home-x")
	if err != nil {
		t.Fatal(err)
	}
	xauth := identity.NewAuth("home-x")
	if err := xauth.SetIdentity(xid); err != nil {
		t.Fatal(err)
	}
	if err := xauth.Trust("home-a", a.id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	strange := &soap.Client{URL: remote.Endpoint, HTTP: transport.NewDialer(xauth).HTTPClient()}
	if _, err := strange.Call(ctx, Namespace("test:svc")+"#Where", call); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("untrusted-home gateway call: %v, want ErrUnauthenticated", err)
	}
}

func TestCrossHomeCallACLDeny(t *testing.T) {
	a := newAuthHome(t, "home-a")
	b := newAuthHome(t, "home-b")
	c := newAuthHome(t, "home-c")
	for _, peer := range []*authHome{b, c} {
		if err := a.auth.Trust(peer.auth.Home(), peer.id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := peer.auth.Trust("home-a", a.id.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	// home-b may reach havi:*, home-c may reach nothing; vcr denied to
	// every caller by pattern.
	a.auth.SetACL(identity.ACL{
		Allow: []identity.Rule{{Caller: "home-b", Service: "*"}},
		Deny:  []identity.Rule{{Caller: "*", Service: "test:vcr-*"}},
	})
	echoExport(t, a.gw, "test:svc", "at-a")
	echoExport(t, a.gw, "test:vcr-1", "vcr")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	svc, err := a.gw.Resolve(ctx, "test:svc")
	if err != nil {
		t.Fatal(err)
	}
	vcr, err := a.gw.Resolve(ctx, "test:vcr-1")
	if err != nil {
		t.Fatal(err)
	}

	// Caller-home rule: home-b admitted, home-c refused.
	if got, err := b.gw.CallRemote(ctx, svc, "Where", nil); err != nil || got.Str() != "at-a" {
		t.Fatalf("allowed caller: (%v, %v)", got, err)
	}
	if _, err := c.gw.CallRemote(ctx, svc, "Where", nil); !errors.Is(err, service.ErrForbidden) {
		t.Errorf("caller outside allow list: %v, want ErrForbidden", err)
	}
	// Pattern rule: deny wins even for the allowed caller.
	if _, err := b.gw.CallRemote(ctx, vcr, "Where", nil); !errors.Is(err, service.ErrForbidden) {
		t.Errorf("pattern-denied service: %v, want ErrForbidden", err)
	}
	// The exporting home itself is never ACL-blocked.
	if got, err := a.gw.Call(ctx, "test:vcr-1", "Where", nil); err != nil || got.Str() != "vcr" {
		t.Errorf("own-home call hit the ACL: (%v, %v)", got, err)
	}
}

// TestLoopbackWireAuthEquivalence holds the two dispatch paths to one
// behaviour under authentication: a same-home call succeeds identically
// over loopback and over the signed wire, and the export-policy check —
// which only governs the home boundary — blocks neither.
func TestLoopbackWireAuthEquivalence(t *testing.T) {
	h := newAuthHome(t, "home-a")
	// A second gateway in the same home, sharing the Auth.
	gw2 := New("home-a-net2", h.srv.URL())
	gw2.SetHome("home-a")
	gw2.SetAuth(h.auth)
	if err := gw2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)
	// Policies that would refuse any foreign caller: they must not
	// affect same-home calls on either path.
	h.auth.SetExportPolicy(identity.Policy{Deny: []string{"*"}})
	h.auth.SetACL(identity.ACL{Deny: []identity.Rule{{Caller: "*", Service: "*"}}})
	echoExport(t, h.gw, "test:svc", "at-a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	remote, err := h.gw.Resolve(ctx, "test:svc")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct {
		name     string
		loopback bool
	}{{"loopback", true}, {"wire", false}} {
		gw2.SetLoopbackEnabled(spec.loopback)
		before := gw2.CallStats().Loopback
		got, err := gw2.CallRemote(ctx, remote, "Where", nil)
		if err != nil || got.Str() != "at-a" {
			t.Errorf("%s same-home call = (%v, %v), want at-a", spec.name, got, err)
		}
		after := gw2.CallStats().Loopback
		if tookLoopback := after > before; tookLoopback != spec.loopback {
			t.Errorf("%s call took loopback=%v", spec.name, tookLoopback)
		}
	}

	// Both paths fault identically for a caller the boundary refuses:
	// the wire fault decodes to the very RemoteError the loopback path
	// builds from the same sentinel (shared soap.FaultFromError).
	wireErr := func() error {
		anon := &soap.Client{URL: remote.Endpoint}
		call := soap.Call{Namespace: Namespace("test:svc"), Operation: "Where"}
		_, err := anon.Call(ctx, Namespace("test:svc")+"#Where", call)
		return err
	}()
	var wireRE *service.RemoteError
	if !errors.As(wireErr, &wireRE) {
		t.Fatalf("wire auth refusal not a RemoteError: %v", wireErr)
	}
	loopRE := soap.FaultFromError(wireErr).RemoteError()
	if wireRE.Code != loopRE.Code || wireRE.Code != "Unauthenticated" {
		t.Errorf("fault codes diverge: wire %q, loopback mapping %q", wireRE.Code, loopRE.Code)
	}
}
