package vsg

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

func lampInterface() service.Interface {
	return service.Interface{
		Name: "Lamp",
		Operations: []service.Operation{
			{Name: "On", Output: service.KindVoid},
			{Name: "Off", Output: service.KindVoid},
			{Name: "SetLevel", Inputs: []service.Parameter{{Name: "level", Type: service.KindInt}}, Output: service.KindVoid},
			{Name: "Level", Output: service.KindInt},
		},
	}
}

// fakeLamp is a local service implementation.
type fakeLamp struct {
	mu    sync.Mutex
	level int64
}

func (l *fakeLamp) Invoke(_ context.Context, op string, args []service.Value) (service.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch op {
	case "On":
		l.level = 100
		return service.Void(), nil
	case "Off":
		l.level = 0
		return service.Void(), nil
	case "SetLevel":
		l.level = args[0].Int()
		return service.Void(), nil
	case "Level":
		return service.IntValue(l.level), nil
	default:
		return service.Value{}, service.ErrNoSuchOperation
	}
}

func lampDesc(id string) service.Description {
	return service.Description{ID: id, Name: id, Middleware: "jini", Interface: lampInterface()}
}

// rig is a repository plus two gateways on separate "networks".
type rig struct {
	srv *vsr.Server
	gw1 *VSG
	gw2 *VSG
}

func newRig(t *testing.T) *rig {
	t.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw1 := New("net1", srv.URL())
	gw2 := New("net2", srv.URL())
	if err := gw1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := gw2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw1.Close()
		gw2.Close()
		srv.Close()
	})
	return &rig{srv: srv, gw1: gw1, gw2: gw2}
}

func TestExportAndLocalCall(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	lamp := &fakeLamp{}
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}
	if _, err := r.gw1.Call(ctx, "jini:lamp-1", "SetLevel", []service.Value{service.IntValue(42)}); err != nil {
		t.Fatal(err)
	}
	got, err := r.gw1.Call(ctx, "jini:lamp-1", "Level", nil)
	if err != nil || got.Int() != 42 {
		t.Fatalf("Level = %v, %v", got, err)
	}
	// Local calls never touch SOAP.
	if s := r.gw1.CallStats(); s.Inbound != 0 || s.Outbound != 0 {
		t.Errorf("local call used the wire: in=%d out=%d", s.Inbound, s.Outbound)
	}
}

func TestCrossGatewayCall(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	lamp := &fakeLamp{}
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}

	// gw2 reaches the service exported on gw1 through the VSR + SOAP.
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "SetLevel", []service.Value{service.IntValue(7)}); err != nil {
		t.Fatalf("cross call: %v", err)
	}
	got, err := r.gw2.Call(ctx, "jini:lamp-1", "Level", nil)
	if err != nil || got.Int() != 7 {
		t.Fatalf("Level via gw2 = %v, %v", got, err)
	}
	in1, out2 := r.gw1.CallStats().Inbound, r.gw2.CallStats().Outbound
	if in1 != 2 || out2 != 2 {
		t.Errorf("stats: gw1 in=%d gw2 out=%d, want 2/2", in1, out2)
	}
}

func TestCallErrorsCrossGateway(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}

	if _, err := r.gw2.Call(ctx, "ghost:svc", "On", nil); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("unknown service: %v", err)
	}
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "Explode", nil); !errors.Is(err, service.ErrNoSuchOperation) {
		t.Errorf("unknown op: %v", err)
	}
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "SetLevel", []service.Value{service.StringValue("x")}); !errors.Is(err, service.ErrBadArgument) {
		t.Errorf("bad arg: %v", err)
	}
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "SetLevel", nil); !errors.Is(err, service.ErrBadArgument) {
		t.Errorf("arity: %v", err)
	}
}

func TestUnexportRemovesService(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	if err := r.gw1.Unexport(ctx, "jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "On", nil); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("call after unexport: %v", err)
	}
	if err := r.gw1.Unexport(ctx, "jini:lamp-1"); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("double unexport: %v", err)
	}
}

func TestGatewayDownIsUnavailable(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	// Resolve once so gw2 has the endpoint, then kill gw1's HTTP side.
	if _, err := r.gw2.Resolve(ctx, "jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	r.gw1.Close()
	// Close also withdraws gw1's registrations, and the delete delta
	// races the call: before it lands the cached endpoint is dialled and
	// found dead (ErrUnavailable); after, the service is known gone
	// (ErrNoSuchService). Both are correct.
	if _, err := r.gw2.Call(ctx, "jini:lamp-1", "On", nil); !errors.Is(err, service.ErrUnavailable) && !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("dead gateway: %v", err)
	}
}

func TestResolveCaching(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	// TTL-only mode (watch off): the first resolve is the one inquiry,
	// the rest are cache hits.
	gw3 := New("net3", r.srv.URL())
	gw3.SetWatchEnabled(false)
	if err := gw3.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw3.Close)
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	_, before := r.srv.Registry().Stats()
	for i := 0; i < 10; i++ {
		if _, err := gw3.Resolve(ctx, "jini:lamp-1"); err != nil {
			t.Fatal(err)
		}
	}
	_, after := r.srv.Registry().Stats()
	if after-before != 1 {
		t.Errorf("TTL-mode cached resolves hit the registry %d times, want 1", after-before)
	}

	// Watch on: once the watch has delivered the export, the cache
	// already holds it and no resolve is an inquiry.
	waitCached(t, r.gw2, "jini:lamp-1")
	_, before = r.srv.Registry().Stats()
	for i := 0; i < 10; i++ {
		if _, err := r.gw2.Resolve(ctx, "jini:lamp-1"); err != nil {
			t.Fatal(err)
		}
	}
	_, after = r.srv.Registry().Stats()
	if after-before != 0 {
		t.Errorf("watch-backed resolves hit the registry %d times, want 0", after-before)
	}

	// With caching disabled every resolve goes to the repository.
	r.gw2.SetCacheTTL(0)
	_, before = r.srv.Registry().Stats()
	for i := 0; i < 5; i++ {
		if _, err := r.gw2.Resolve(ctx, "jini:lamp-1"); err != nil {
			t.Fatal(err)
		}
	}
	_, after = r.srv.Registry().Stats()
	if after-before != 5 {
		t.Errorf("uncached resolves hit the registry %d times, want 5", after-before)
	}
}

// leaseRig is a repository on an in-memory network and a started
// gateway reaching it through SetTransport, with registrations leased
// for ttl. The registry expires by a virtual clock the test advances;
// the gateway runs on a virtual clock of its own that never moves, so
// its refresh loop never ticks and renewal happens only when the test
// calls RefreshExports. Lease tests advance virtual time instead of
// sleeping through it.
type leaseRig struct {
	vc  *vclock.Virtual
	reg *uddi.Server
	gw  *VSG
}

func newLeaseRig(t *testing.T, ttl time.Duration) *leaseRig {
	t.Helper()
	start := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	vc := vclock.NewVirtual(start)
	mnet := transport.NewMemNet()
	reg := uddi.NewManualServer()
	reg.SetClock(vc.Now)
	srv := vsr.NewDetachedServer("repo", reg, nil)
	t.Cleanup(srv.Close)
	mnet.Handle("repo", srv.Handler())

	gw := New("net1", srv.URL())
	gw.SetClock(vclock.NewVirtual(start))
	gw.SetTransport(mnet)
	gw.VSR().SetTTL(ttl)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return &leaseRig{vc: vc, reg: reg, gw: gw}
}

func TestRefreshKeepsRegistrationAlive(t *testing.T) {
	r := newLeaseRig(t, 500*time.Millisecond)
	ctx := context.Background()
	if err := r.gw.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	// Three 400ms steps, each inside the 500ms lease, each followed by a
	// refresh: the registration must ride through 1.2 virtual seconds.
	for i := 0; i < 3; i++ {
		r.vc.Advance(400 * time.Millisecond)
		r.reg.Sweep()
		if err := r.gw.RefreshExports(ctx); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	if _, err := r.gw.VSR().Lookup(ctx, "jini:lamp-1"); err != nil {
		t.Errorf("registration lapsed despite refresh: %v", err)
	}
	// Control: with refresh stopped, one full TTL later the lease lapses
	// — proving the survival above was the refreshes, not slack.
	r.vc.Advance(600 * time.Millisecond)
	r.reg.Sweep()
	if _, err := r.gw.VSR().Lookup(ctx, "jini:lamp-1"); err == nil {
		t.Error("registration survived a full TTL with refresh stopped")
	}
}

func TestNamespaceRoundTrip(t *testing.T) {
	ns := Namespace("jini:lamp-1")
	id, ok := ServiceIDFromNamespace(ns)
	if !ok || id != "jini:lamp-1" {
		t.Errorf("round trip = %q, %v", id, ok)
	}
	if _, ok := ServiceIDFromNamespace("urn:other:thing"); ok {
		t.Error("foreign namespace accepted")
	}
}

func TestListQuery(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	if err := r.gw2.Export(ctx, lampDesc("jini:lamp-2"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	all, err := r.gw1.List(ctx, vsr.Query{})
	if err != nil || len(all) != 2 {
		t.Fatalf("List = %d, %v", len(all), err)
	}
	// Network context tags are applied on export.
	for _, rm := range all {
		want := "net1"
		if rm.Desc.ID == "jini:lamp-2" {
			want = "net2"
		}
		if rm.Desc.Context[service.CtxNetwork] != want {
			t.Errorf("%s network = %q, want %q", rm.Desc.ID, rm.Desc.Context[service.CtxNetwork], want)
		}
	}
}

func TestUnexportUnknownService(t *testing.T) {
	r := newRig(t)
	if err := r.gw1.Unexport(context.Background(), "jini:ghost"); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("Unexport of never-exported service = %v, want ErrNoSuchService", err)
	}
}

func TestHealthSurfacesRefreshFailures(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := New("net1", srv.URL())
	gw.VSR().SetTTL(300 * time.Millisecond) // refresh every 100ms
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx := context.Background()
	if err := gw.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}

	// Healthy repository: a successful round stamps LastRefreshOK and
	// keeps the failure counter at zero.
	deadline := time.Now().Add(5 * time.Second)
	for gw.Health().LastRefreshOK.IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("no successful refresh round observed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h := gw.Health(); h.ConsecutiveRefreshFailures != 0 {
		t.Errorf("healthy gateway reports %+v", h)
	}

	// Dead repository: consecutive failures climb and the error is
	// readable — the observable dead-VSR condition.
	srv.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		h := gw.Health()
		if h.ConsecutiveRefreshFailures >= 2 {
			if h.LastRefreshError == "" {
				t.Error("failures counted but no error recorded")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh failures never surfaced: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitWatchActive parks until the gateway's repository watch is up.
func waitWatchActive(t *testing.T, gw *VSG) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !gw.Health().WatchActive {
		if time.Now().After(deadline) {
			t.Fatal("watch never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchInvalidatesCacheOnChange: with the cache TTL effectively
// infinite, only push invalidation can fix a stale resolution — a
// re-registered endpoint must flow through within the watch latency, not
// a TTL expiry.
func TestWatchInvalidatesCacheOnChange(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	// An hour-long TTL: if the new endpoint shows up, the watch did it.
	r.gw2.SetCacheTTL(time.Hour)
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	waitWatchActive(t, r.gw2)
	first, err := r.gw2.Resolve(ctx, "jini:lamp-1")
	if err != nil {
		t.Fatal(err)
	}

	// The service re-homes: same ID, new endpoint, registered directly
	// with the repository (as its new gateway would).
	v := vsr.New(r.srv.URL())
	desc := lampDesc("jini:lamp-1")
	const moved = "http://203.0.113.9:1/services/jini:lamp-1"
	if _, err := v.Register(ctx, desc, moved); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := r.gw2.Resolve(ctx, "jini:lamp-1")
		if err != nil {
			t.Fatal(err)
		}
		if got.Endpoint == moved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint still %q (was %q), push invalidation never landed", got.Endpoint, first.Endpoint)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The rewrite came from the delta payload, not a fresh inquiry: the
	// registry saw exactly one find for this gateway's two-plus resolves.
	if h := r.gw2.Health(); h.CacheInvalidations == 0 {
		t.Errorf("invalidation not accounted: %+v", h)
	}
}

// TestWatchServesCacheBeyondTTL: a live watch lifts the TTL bound — the
// entry cannot be stale, so it keeps serving without repository traffic.
// The same gateway with the watch disabled re-queries every TTL: the
// paper's poll model, now the degraded fallback.
func TestWatchServesCacheBeyondTTL(t *testing.T) {
	// The gateway under test runs on a virtual clock: cache entries are
	// stamped and aged against it, so "well past the TTL" is a clock
	// advance, not a sleep. The repository and watch stream stay real.
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	v := vsr.New(srv.URL())
	if _, err := v.Register(ctx, lampDesc("jini:lamp-1"), "http://h/1"); err != nil {
		t.Fatal(err)
	}

	vc := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	gw2 := New("net2", srv.URL())
	gw2.SetClock(vc)
	gw2.SetCacheTTL(100 * time.Millisecond)
	if err := gw2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	waitWatchActive(t, gw2)
	if _, err := gw2.Resolve(ctx, "jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	_, before := srv.Registry().Stats()
	vc.Advance(300 * time.Millisecond) // well past the TTL
	for i := 0; i < 5; i++ {
		if _, err := gw2.Resolve(ctx, "jini:lamp-1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := srv.Registry().Stats(); after != before {
		t.Errorf("watch-backed cache re-queried the registry %d times past TTL", after-before)
	}

	// Watch disabled: the TTL is the only staleness bound again.
	vc3 := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	gw3 := New("net3", srv.URL())
	gw3.SetClock(vc3)
	gw3.SetWatchEnabled(false)
	gw3.SetCacheTTL(100 * time.Millisecond)
	if err := gw3.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw3.Close()
	if _, err := gw3.Resolve(ctx, "jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	_, before = srv.Registry().Stats()
	vc3.Advance(300 * time.Millisecond)
	if _, err := gw3.Resolve(ctx, "jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	if _, after := srv.Registry().Stats(); after-before != 1 {
		t.Errorf("TTL-mode resolve past expiry hit the registry %d times, want 1", after-before)
	}
	if gw3.Health().WatchActive {
		t.Error("watch reported active on a watch-disabled gateway")
	}
}

// TestHealthSurfacesWatchOutage: losing the repository flips the gateway
// into degraded mode with a readable cause; Health makes the outage
// observable.
func TestHealthSurfacesWatchOutage(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := New("net1", srv.URL())
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	waitWatchActive(t, gw)

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := gw.Health()
		if !h.WatchActive {
			if h.LastWatchError == "" {
				t.Error("watch down but no error recorded")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch outage never surfaced: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBatchedRefreshKeepsManyExportsAlive: a gateway with several exports
// renews them all (in one round trip per interval) — none lapse.
func TestBatchedRefreshKeepsManyExportsAlive(t *testing.T) {
	r := newLeaseRig(t, 500*time.Millisecond)
	ctx := context.Background()
	ids := []string{"jini:lamp-1", "jini:lamp-2", "jini:lamp-3", "jini:lamp-4"}
	for _, id := range ids {
		if err := r.gw.Export(ctx, lampDesc(id), &fakeLamp{}); err != nil {
			t.Fatal(err)
		}
	}
	// Each refresh renews all four leases in one RegisterAll batch.
	for i := 0; i < 3; i++ {
		r.vc.Advance(400 * time.Millisecond)
		r.reg.Sweep()
		if err := r.gw.RefreshExports(ctx); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if _, err := r.gw.VSR().Lookup(ctx, id); err != nil {
			t.Errorf("%s lapsed despite batched refresh after 1.2 virtual seconds: %v", id, err)
		}
	}
}

func TestStatsCountCrossGatewayCalls(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.gw2.Call(ctx, "jini:lamp-1", "Level", nil); err != nil {
			t.Fatal(err)
		}
	}
	if in := r.gw1.CallStats().Inbound; in != 3 {
		t.Errorf("gw1 inbound = %d, want 3", in)
	}
	if out := r.gw2.CallStats().Outbound; out != 3 {
		t.Errorf("gw2 outbound = %d, want 3", out)
	}
}

// TestExportServesBeforeRegistrationReturns calls a service in the
// window between the repository accepting its registration and Export
// returning: a caller that resolves it there must reach a live export,
// not NoSuchService. The exporting gateway registers through a proxy
// that, holding the registration's reply, makes the call first.
func TestExportServesBeforeRegistrationReturns(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var inWindow func() error
	window := make(chan error, 1)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		resp, err := http.Post(srv.URL(), r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		if inWindow != nil && bytes.Contains(body, []byte("<save_service")) {
			window <- inWindow()
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(reply)
	}))
	defer proxy.Close()

	gw1 := New("net1", proxy.URL+"/uddi")
	gw1.SetWatchEnabled(false)
	gw2 := New("net2", srv.URL())
	ctx := context.Background()
	// Set before the gateways start: gw1's watch traffic passes the
	// proxy too.
	inWindow = func() error {
		_, err := gw2.Call(ctx, "jini:lamp-1", "SetLevel", []service.Value{service.IntValue(7)})
		return err
	}
	for _, gw := range []*VSG{gw1, gw2} {
		if err := gw.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
	}
	lamp := &fakeLamp{}
	if err := gw1.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-window:
		if err != nil {
			t.Fatalf("call resolved while Export was registering: %v", err)
		}
	default:
		t.Fatal("test premise broken: the registration never passed the proxy")
	}
	lamp.mu.Lock()
	defer lamp.mu.Unlock()
	if lamp.level != 7 {
		t.Fatalf("lamp level = %d, want 7", lamp.level)
	}
}

// TestExportUnwindsFailedRegistration: an export whose registration
// fails leaves no live endpoint behind.
func TestExportUnwindsFailedRegistration(t *testing.T) {
	gw := New("net1", "http://127.0.0.1:1/uddi") // nothing listens here
	gw.SetWatchEnabled(false)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Export(ctx, lampDesc("jini:lamp-1"), &fakeLamp{}); err == nil {
		t.Fatal("export against a dead repository succeeded")
	}
	if ids := gw.Exports(); len(ids) != 0 {
		t.Fatalf("failed export left %v installed", ids)
	}
}

// countingLamp counts every invocation that reaches it.
type countingLamp struct {
	fakeLamp
	calls atomic.Int64
}

func (l *countingLamp) Invoke(ctx context.Context, op string, args []service.Value) (service.Value, error) {
	l.calls.Add(1)
	return l.fakeLamp.Invoke(ctx, op, args)
}

// TestBinaryFaceRefusesXMLEnvelope: a SOAP envelope framed over a
// negotiated binary link gets a Client fault from /services/ and never
// reaches inbound dispatch — envelopes belong to the HTTP face.
func TestBinaryFaceRefusesXMLEnvelope(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	lamp := &countingLamp{}
	if err := r.gw1.Export(ctx, lampDesc("jini:lamp-1"), lamp); err != nil {
		t.Fatal(err)
	}
	env, err := soap.EncodeCall(soap.Call{Namespace: Namespace("jini:lamp-1"), Operation: "Level"})
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDialer(nil)
	defer d.Close()
	url := r.gw1.EndpointFor("jini:lamp-1")
	var res transport.BinResult
	err = d.Exchange(ctx, url, `text/xml; charset="utf-8"`, Namespace("jini:lamp-1")+"#Level", env,
		func(r transport.BinResult) {
			res = r
			res.Body = append([]byte(nil), r.Body...)
		})
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if p := d.ProtocolFor(url); p != "binary" {
		t.Fatalf("link is %q, want binary", p)
	}
	_, fault, err := soap.DecodeBinResponse(res.Body)
	if err != nil || fault == nil || fault.Code != "Client" {
		t.Fatalf("status %d, fault %+v, err %v: want a Client fault", res.Status, fault, err)
	}
	if res.Status != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", res.Status)
	}
	if n := lamp.calls.Load(); n != 0 {
		t.Errorf("inbound handler reached %d times", n)
	}
	if in := r.gw1.CallStats().Inbound; in != 0 {
		t.Errorf("inbound counter %d, want 0", in)
	}
}
