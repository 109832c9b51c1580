// Regression test for the shared HomeSpec builder: a federation built
// through Config/NewHome and one built directly through HomeSpec.Build
// must be indistinguishable at the Health and PeerStatus surfaces. This
// is the contract that lets the neighborhood harness construct homes the
// harness way while measuring the homes NewHome would have built.
package sim

import (
	"context"
	"testing"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/service"
)

func testDescSim(id string) service.Description {
	return service.Description{
		ID: id, Name: id, Middleware: "test",
		Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
}

var testInvoker = service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
	return service.Void(), nil
})

// buildPair constructs "alpha" twice — once per path — with identical
// identity/trust/audit inputs, plus a shared peer home "omega" both
// replicate from.
func buildPair(t *testing.T) (cfgFed, specFed, omega *core.Federation) {
	t.Helper()
	idAlpha, err := identity.Generate("alpha")
	if err != nil {
		t.Fatal(err)
	}
	idOmega, err := identity.Generate("omega")
	if err != nil {
		t.Fatal(err)
	}
	trust := map[string]string{"omega": idOmega.PublicKey()}

	// Path 1: the Config/NewHome prologue (no middleware networks — the
	// comparison targets the federation surface both paths share).
	h, err := NewHome(context.Background(), Config{
		Home: "alpha", Identity: idAlpha, Trusted: trust, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	// Path 2: the harness's direct HomeSpec build.
	spec := HomeSpec{Name: "alpha", Identity: idAlpha, Trusted: trust, Audit: true}
	sf, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)

	of, err := HomeSpec{
		Name: "omega", Identity: idOmega, Audit: true,
		Trusted: map[string]string{"alpha": idAlpha.PublicKey()},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(of.Close)
	return h.Fed, sf, of
}

func waitConnected(t *testing.T, f *core.Federation, url string) peer.Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := f.PeerStatus()[url]
		if ok && st.Connected && st.Imported >= 1 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: link to %s never synced: %+v", f.Home(), url, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitWatchActive waits until every gateway of f reports its repository
// watch up, so Health compares settled state.
func waitWatchActive(t *testing.T, f *core.Federation) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		active := true
		for _, h := range f.Health() {
			active = active && h.WatchActive
		}
		if active {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: a gateway's watch never came up: %+v", f.Home(), f.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHomeSpecMatchesConfigConstruction(t *testing.T) {
	cfgFed, specFed, omega := buildPair(t)

	// Give omega one export so the links have something to replicate.
	net, err := omega.AddNetwork("test-net")
	if err != nil {
		t.Fatal(err)
	}
	gw := net.Gateway()
	if err := gw.Export(context.Background(), testDescSim("svc-1"), testInvoker); err != nil {
		t.Fatal(err)
	}

	for _, f := range []*core.Federation{cfgFed, specFed} {
		if _, err := f.AddNetwork("test-net"); err != nil {
			t.Fatalf("%v: add network: %v", f, err)
		}
		if err := f.Peer(omega.PeerURL()); err != nil {
			t.Fatal(err)
		}
	}

	stCfg := waitConnected(t, cfgFed, omega.PeerURL())
	stSpec := waitConnected(t, specFed, omega.PeerURL())
	waitWatchActive(t, cfgFed)
	waitWatchActive(t, specFed)

	// PeerStatus equivalence (URL and timestamps aside, which differ by
	// construction): both links authenticated, same remote, same import
	// footprint.
	if stCfg.RemoteHome != stSpec.RemoteHome ||
		stCfg.Connected != stSpec.Connected ||
		stCfg.Authenticated != stSpec.Authenticated ||
		stCfg.Imported != stSpec.Imported {
		t.Errorf("peer status diverged:\n config: %+v\n spec:   %+v", stCfg, stSpec)
	}
	if !stCfg.Authenticated {
		t.Error("links not authenticated despite identities")
	}

	// Health equivalence: same networks, same watch state, no refresh
	// failures on either path.
	hc, hs := cfgFed.Health(), specFed.Health()
	if len(hc) != len(hs) {
		t.Fatalf("health map sizes differ: %d vs %d", len(hc), len(hs))
	}
	for name, c := range hc {
		s, ok := hs[name]
		if !ok {
			t.Fatalf("spec path missing network %q", name)
		}
		if c.WatchActive != s.WatchActive ||
			c.ConsecutiveRefreshFailures != s.ConsecutiveRefreshFailures ||
			c.LastRefreshError != s.LastRefreshError {
			t.Errorf("health diverged for %q:\n config: %+v\n spec:   %+v", name, c, s)
		}
	}

	// Auth surface equivalence.
	if cfgFed.Auth().Enabled() != specFed.Auth().Enabled() {
		t.Error("auth enablement diverged")
	}
	if (cfgFed.Audit() == nil) != (specFed.Audit() == nil) {
		t.Error("audit enablement diverged")
	}
}
