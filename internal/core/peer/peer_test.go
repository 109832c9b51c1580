// Tests for the inter-home peering layer: export policy, ID scoping,
// watch-driven replication, reconciliation, and outage degradation.
package peer

import (
	"context"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/vclock"
)

func TestPolicyAdmits(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		id   string
		want bool
	}{
		{"empty admits all", Policy{}, "jini:laserdisc-1", true},
		{"allow exact", Policy{Allow: []string{"jini:laserdisc-1"}}, "jini:laserdisc-1", true},
		{"allow exact misses", Policy{Allow: []string{"jini:laserdisc-1"}}, "x10:lamp-1", false},
		{"allow prefix", Policy{Allow: []string{"havi:*"}}, "havi:dvcam-cam1", true},
		{"allow star", Policy{Allow: []string{"*"}}, "anything", true},
		{"deny wins over allow", Policy{Allow: []string{"*"}, Deny: []string{"x10:*"}}, "x10:lamp-1", false},
		{"deny exact", Policy{Deny: []string{"mail:outbox"}}, "mail:outbox", false},
		{"deny misses", Policy{Deny: []string{"x10:*"}}, "jini:laserdisc-1", true},
	}
	for _, c := range cases {
		if got := c.pol.Admits(c.id); got != c.want {
			t.Errorf("%s: Admits(%q) = %v, want %v", c.name, c.id, got, c.want)
		}
	}
}

func TestNewRejectsBadHomes(t *testing.T) {
	if _, err := New("", nil, nil); err == nil {
		t.Error("empty home accepted")
	}
	if _, err := New("a/b", nil, nil); err == nil {
		t.Error("home with scope separator accepted")
	}
	if _, err := New("a", nil, identity.NewAuth("b")); err == nil {
		t.Error("auth context for a different home accepted")
	}
}

// home is one simulated residence for link tests: a repository with a
// peering layer mounted, plus a client on its own registry.
type home struct {
	name string
	srv  *vsr.Server
	p    *Peering
	v    *vsr.VSR
}

func newHomeFixture(t *testing.T, name string) *home {
	t.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	p, err := New(name, srv.Registry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv.MountPeer(p.ExportView)
	return &home{name: name, srv: srv, p: p, v: vsr.New(srv.URL())}
}

func testDesc(id string) service.Description {
	return service.Description{
		ID: id, Name: id, Middleware: "test",
		Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
}

// register publishes a service in the home's registry the way a gateway
// would (the export view stamps the home, so no CtxHome is needed here).
func (h *home) register(t *testing.T, id, endpoint string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.v.Register(ctx, testDesc(id), endpoint); err != nil {
		t.Fatal(err)
	}
}

// waitLookup polls home h until id resolves (or not, when gone is true).
func (h *home) waitLookup(t *testing.T, id string, gone bool) vsr.Remote {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		r, err := h.v.Lookup(ctx, id)
		if gone == (err != nil) {
			return r
		}
		select {
		case <-ctx.Done():
			t.Fatalf("waitLookup(%s, gone=%v): %v", id, gone, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestLinkReplicatesAndScopes(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	a.register(t, "jini:laserdisc-1", "http://gw-a/services/jini:laserdisc-1")

	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	r := b.waitLookup(t, "home-a/jini:laserdisc-1", false)
	if r.Endpoint != "http://gw-a/services/jini:laserdisc-1" {
		t.Errorf("imported endpoint = %q, want home A's gateway", r.Endpoint)
	}
	if r.Desc.Context[service.CtxPeerOrigin] != "home-a" || r.Desc.Context[service.CtxHome] != "home-a" {
		t.Errorf("imported context = %v, want origin/home stamps", r.Desc.Context)
	}

	// A service registered after the link is up propagates via the watch.
	a.register(t, "x10:lamp-1", "http://gw-a/services/x10:lamp-1")
	b.waitLookup(t, "home-a/x10:lamp-1", false)

	// Deletes propagate too.
	ctx := context.Background()
	if err := a.v.Unregister(ctx, "uuid:svc-x10:lamp-1"); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/x10:lamp-1", true)

	st := b.p.Status()[a.srv.PeerURL()]
	if !st.Connected || st.RemoteHome != "home-a" || st.Cursor == 0 {
		t.Errorf("status = %+v, want connected to home-a with a cursor", st)
	}
}

func TestLinkHonorsExportPolicy(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	a.p.SetPolicy(Policy{Deny: []string{"x10:*"}})
	a.register(t, "jini:laserdisc-1", "http://gw-a/1")
	a.register(t, "x10:lamp-1", "http://gw-a/2")

	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)
	ctx := context.Background()
	if _, err := b.v.Lookup(ctx, "home-a/x10:lamp-1"); err == nil {
		t.Error("denied service replicated to peer")
	}
}

func TestNoTransitReplication(t *testing.T) {
	// C peers with B, B peers with A: A's services must reach B but not
	// travel on to C — federation is one-hop by design.
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	c := newHomeFixture(t, "home-c")
	a.register(t, "jini:laserdisc-1", "http://gw-a/1")
	b.register(t, "mail:outbox", "http://gw-b/1")

	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.p.Peer(b.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)
	c.waitLookup(t, "home-b/mail:outbox", false)
	// Event-driven barrier instead of a timed wait: B journals its
	// import of A's entry before this sentinel, so once the sentinel has
	// replicated to C in journal order, any (incorrect) transit
	// forwarding of A's entry would already have landed at C too.
	b.register(t, "mail:sentinel", "http://gw-b/2")
	c.waitLookup(t, "home-b/mail:sentinel", false)
	ctx := context.Background()
	if _, err := c.v.Lookup(ctx, "home-b/home-a/jini:laserdisc-1"); err == nil {
		t.Error("transit entry replicated two hops")
	}
	if _, err := c.v.Lookup(ctx, "home-a/jini:laserdisc-1"); err == nil {
		t.Error("transit entry re-scoped and replicated two hops")
	}
}

func TestMutualPeeringNoLoop(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	a.register(t, "jini:laserdisc-1", "http://gw-a/1")
	b.register(t, "mail:outbox", "http://gw-b/1")

	if _, err := a.p.Peer(b.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	a.waitLookup(t, "home-b/mail:outbox", false)
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)
	// Sentinel barrier: each side's import of the other's entry is
	// journaled before the sentinel registered after it, so seeing the
	// sentinel across the link proves the cursor moved past the point
	// where any loop re-export would have been journaled.
	a.register(t, "jini:sentinel-a", "http://gw-a/2")
	b.register(t, "mail:sentinel-b", "http://gw-b/2")
	a.waitLookup(t, "home-b/mail:sentinel-b", false)
	b.waitLookup(t, "home-a/jini:sentinel-a", false)
	ctx := context.Background()
	for _, id := range []string{"home-b/home-a/jini:laserdisc-1", "home-a/home-b/mail:outbox"} {
		if _, err := a.v.Lookup(ctx, id); err == nil {
			t.Errorf("loop entry %s appeared in home A", id)
		}
		if _, err := b.v.Lookup(ctx, id); err == nil {
			t.Errorf("loop entry %s appeared in home B", id)
		}
	}
}

func TestPeerOutageDegradesToTTL(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	b.p.SetImportTTL(500 * time.Millisecond)
	a.register(t, "jini:laserdisc-1", "http://gw-a/1")

	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)

	// Kill home A. The link degrades; the imported entry keeps serving
	// until its TTL lapses, then vanishes.
	a.srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.p.Status()[a.srv.PeerURL()]
		if !st.Connected && st.LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("link never degraded: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", true)
}

func TestUnpeerWithdrawsImports(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	a.register(t, "jini:laserdisc-1", "http://gw-a/1")
	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)
	if err := b.p.Unpeer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", true)
	if err := b.p.Unpeer(a.srv.PeerURL()); err == nil {
		t.Error("double unpeer accepted")
	}
}

func TestPeerRejectsDuplicates(t *testing.T) {
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.p.Peer(a.srv.PeerURL()); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := b.p.Peer(""); err == nil {
		t.Error("empty peer URL accepted")
	}
}

func TestReconcileRefreshesQuietRegistries(t *testing.T) {
	// With a short import TTL and a remote whose journal stays quiet, the
	// anti-entropy reconcile must keep imported entries alive. Home B's
	// peering and registry run on a virtual clock: import leases age and
	// refresh timers fire on clock advances, not on wall time.
	a := newHomeFixture(t, "home-a")
	b := newHomeFixture(t, "home-b")
	vc := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	b.srv.Registry().SetClock(vc.Now)
	b.p.SetClock(vc)
	b.p.SetImportTTL(600 * time.Millisecond)
	ctx := context.Background()
	// Register with a long TTL so home A never journals a refresh.
	a.v.SetTTL(time.Hour)
	if _, err := a.v.Register(ctx, testDesc("jini:laserdisc-1"), "http://gw-a/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.p.Peer(a.srv.PeerURL()); err != nil {
		t.Fatal(err)
	}
	b.waitLookup(t, "home-a/jini:laserdisc-1", false)

	// Step virtual time through seven anti-entropy intervals (200ms each
	// at ImportTTL/3) — 1.4 virtual seconds, past two full import TTLs.
	// After each advance, wait for the link's reconcile to land (its
	// LastSync reaches the step) and for the refresh timer to be rearmed
	// (the clock holds a future deadline), so no step fires into a
	// disarmed timer.
	for i := 0; i < 7; i++ {
		target := vc.Now().Add(200 * time.Millisecond)
		vc.AdvanceTo(target)
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := b.p.Status()[a.srv.PeerURL()]
			next, armed := vc.NextDeadline()
			if !st.LastSync.Before(target) && armed && next.After(target) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("step %d: reconcile never landed: %+v", i, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := b.v.Lookup(ctx, "home-a/jini:laserdisc-1"); err != nil {
		t.Errorf("quiet remote's import expired despite anti-entropy: %v", err)
	}
}
