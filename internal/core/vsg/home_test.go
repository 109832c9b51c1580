// Home-aware gateway behavior: scoped-ID canonicalization and the
// loopback-vs-wire rule (loopback only between gateways of the same
// home; cross-home calls always ride the wire, even in one process).
package vsg

import (
	"context"
	"testing"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

// homeRig builds one repository per home and one gateway per home, all
// in this process.
func homeGateway(t *testing.T, home, net string) (*vsr.Server, *VSG) {
	t.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := New(net, srv.URL())
	gw.SetHome(home)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Close()
		srv.Close()
	})
	return srv, gw
}

func TestOwnScopeCanonicalization(t *testing.T) {
	_, gw := homeGateway(t, "home-a", "net1")
	ctx := context.Background()
	lamp := &fakeLamp{}
	if err := gw.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}
	// The scoped spelling of a local service reaches the same export.
	if _, err := gw.Call(ctx, "home-a/jini:lamp-1", "SetLevel", []service.Value{service.IntValue(7)}); err != nil {
		t.Fatal(err)
	}
	got, err := gw.Call(ctx, "jini:lamp-1", "Level", nil)
	if err != nil || got.Int() != 7 {
		t.Fatalf("Level = %v, %v", got, err)
	}
	// A foreign scope is not stripped: it must resolve via the
	// repository, and here it cannot.
	if _, err := gw.Call(ctx, "home-b/jini:lamp-1", "Level", nil); err == nil {
		t.Error("foreign-scoped ID resolved locally")
	}
}

func TestExportTagsHomeContext(t *testing.T) {
	srv, gw := homeGateway(t, "home-a", "net1")
	ctx := context.Background()
	if err := gw.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	r, err := vsr.New(srv.URL()).Lookup(ctx, "jini:lamp-1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Desc.Context[service.CtxHome] != "home-a" {
		t.Errorf("export context = %v, want CtxHome=home-a", r.Desc.Context)
	}
}

// TestCrossHomeCallSkipsLoopback: two homes in one process; a call from
// home B to a service imported from home A must travel the wire even
// though A's gateway is loopback-reachable.
func TestCrossHomeCallSkipsLoopback(t *testing.T) {
	srvA, gwA := homeGateway(t, "home-a", "net1")
	_, gwB := homeGateway(t, "home-b", "net1")
	ctx := context.Background()
	lamp := &fakeLamp{}
	if err := gwA.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}

	// Hand B the resolved remote the way its repository would present an
	// import: scoped ID, A's gateway endpoint.
	desc := lampDesc("jini:lamp-1")
	desc.ID = service.ScopeID("home-a", desc.ID)
	remote := vsr.Remote{Desc: desc, Endpoint: gwA.EndpointFor("jini:lamp-1")}

	got, err := gwB.CallRemote(ctx, remote, "Level", nil)
	if err != nil || got.Int() != 0 {
		t.Fatalf("cross-home CallRemote = %v, %v", got, err)
	}
	if loop := gwB.CallStats().Loopback; loop != 0 {
		t.Errorf("cross-home call took loopback (%d loopback calls)", loop)
	}
	if inA := gwA.CallStats().Inbound; inA != 1 {
		t.Errorf("home A gateway inbound = %d, want 1 wire call", inA)
	}

	// Same-home gateways in one process still loopback.
	gwA2 := New("net2", srvA.URL())
	gwA2.SetHome("home-a")
	if err := gwA2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gwA2.Close)
	unscoped := vsr.Remote{Desc: lampDesc("jini:lamp-1"), Endpoint: gwA.EndpointFor("jini:lamp-1")}
	if _, err := gwA2.CallRemote(ctx, unscoped, "Level", nil); err != nil {
		t.Fatal(err)
	}
	if loop := gwA2.CallStats().Loopback; loop != 1 {
		t.Errorf("same-home call skipped loopback (%d loopback calls)", loop)
	}
}
