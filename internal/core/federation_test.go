package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/service"
)

// nopPCM records lifecycle calls.
type nopPCM struct {
	started   bool
	stopped   bool
	failStart bool
}

func (p *nopPCM) Middleware() string { return "nop" }

func (p *nopPCM) Start(context.Context, *vsg.VSG) error {
	if p.failStart {
		return errors.New("boom")
	}
	p.started = true
	return nil
}

func (p *nopPCM) Stop() error {
	p.stopped = true
	return nil
}

var _ pcm.PCM = (*nopPCM)(nil)

func TestFederationLifecycle(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if fed.VSRURL() == "" {
		t.Fatal("no VSR URL")
	}

	n1, err := fed.AddNetwork("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.AddNetwork("a"); err == nil {
		t.Error("duplicate network accepted")
	}
	if fed.Network("a") != n1 {
		t.Error("Network lookup failed")
	}
	if fed.Network("zzz") != nil {
		t.Error("unknown network returned")
	}
	if _, err := fed.AddNetwork("b"); err != nil {
		t.Fatal(err)
	}
	names := fed.Networks()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Networks = %v", names)
	}

	p := &nopPCM{}
	ctx := context.Background()
	if err := n1.Attach(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !p.started {
		t.Error("PCM not started")
	}
	bad := &nopPCM{failStart: true}
	if err := n1.Attach(ctx, bad); err == nil {
		t.Error("failing PCM attach accepted")
	}

	fed.Close()
	if !p.stopped {
		t.Error("PCM not stopped on Close")
	}
	// Close is idempotent; AddNetwork after Close fails.
	fed.Close()
	if _, err := fed.AddNetwork("c"); err == nil {
		t.Error("AddNetwork after Close accepted")
	}
}

func TestFederationCallRouting(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// No networks yet.
	if _, err := fed.Call(ctx, "x:y", "Op"); err == nil {
		t.Error("Call without networks accepted")
	}
	if _, err := fed.Services(ctx); err == nil {
		t.Error("Services without networks accepted")
	}

	n, err := fed.AddNetwork("a")
	if err != nil {
		t.Fatal(err)
	}
	desc := service.Description{
		ID: "x:y", Name: "y", Middleware: "x",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindString},
		}},
	}
	inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue("pong"), nil
	})
	if err := n.Gateway().Export(ctx, desc, inv); err != nil {
		t.Fatal(err)
	}
	got, err := fed.Call(ctx, "x:y", "Ping")
	if err != nil || got.Str() != "pong" {
		t.Fatalf("Call = %v, %v", got, err)
	}
	services, err := fed.Services(ctx)
	if err != nil || len(services) != 1 {
		t.Fatalf("Services = %v, %v", services, err)
	}
}

func TestFederationSceneEngineLifecycle(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	n, err := fed.AddNetwork("a")
	if err != nil {
		t.Fatal(err)
	}
	desc := service.Description{
		ID: "x:y", Name: "y", Middleware: "x",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindString},
		}},
	}
	inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue("pong"), nil
	})
	if err := n.Gateway().Export(ctx, desc, inv); err != nil {
		t.Fatal(err)
	}

	// The engine is created once and sees existing networks as sources.
	eng := fed.Scenes()
	if eng == nil || fed.Scenes() != eng {
		t.Fatal("Scenes is not a stable accessor")
	}
	done := make(chan scene.Record, 4)
	eng.SetRunHook(func(r scene.Record) { done <- r })
	sc := &scene.Scene{
		Name:     "ping",
		Triggers: []scene.Trigger{{Topic: "test.go", Network: "a"}},
		Steps:    []scene.Step{{Kind: scene.StepCall, Name: "p", Service: "x:y", Op: "Ping"}},
	}
	if err := eng.Load(sc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start("ping"); err != nil {
		t.Fatal(err)
	}
	// Networks added after the engine exists become sources too.
	if _, err := fed.AddNetwork("b"); err != nil {
		t.Fatal(err)
	}
	n.Gateway().Hub().Publish(service.Event{Source: "test", Topic: "test.go"})
	select {
	case rec := <-done:
		if rec.Outcome != scene.OutcomeCompleted || rec.Steps[0].Result.Str() != "pong" {
			t.Fatalf("run = %+v", rec)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scene never ran")
	}

	// Close is idempotent and tears the engine down first.
	fed.Close()
	fed.Close()
	if err := eng.Load(sc); err == nil {
		t.Error("scene engine usable after federation Close")
	}
}

// TestServiceRehomeCallableWithoutTTLWait: a service that moves from one
// gateway to another is callable through a third gateway as soon as the
// repository's change deltas land — with the caller's cache TTL set to an
// hour, only push invalidation can deliver the new endpoint, so success
// proves the move propagated by watch, not by waiting out a TTL (the old
// behaviour stranded callers for up to the full 2s cache TTL).
func TestServiceRehomeCallableWithoutTTLWait(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	nets := make([]*Network, 3)
	for i, name := range []string{"a", "b", "c"} {
		if nets[i], err = fed.AddNetwork(name); err != nil {
			t.Fatal(err)
		}
	}
	caller := nets[1].Gateway()
	// A TTL that can never rescue a stale entry within the test.
	caller.SetCacheTTL(time.Hour)

	desc := service.Description{
		ID: "x:mobile", Name: "mobile", Middleware: "x",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{
			{Name: "Where", Output: service.KindString},
		}},
	}
	home := func(where string) service.Invoker {
		return service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
			return service.StringValue(where), nil
		})
	}
	if err := nets[0].Gateway().Export(ctx, desc, home("a")); err != nil {
		t.Fatal(err)
	}
	got, err := fed.Network("b").Gateway().Call(ctx, "x:mobile", "Where", nil)
	if err != nil || got.Str() != "a" {
		t.Fatalf("call before move = %v, %v", got, err)
	}

	// The service moves: withdrawn from network a, exported on c.
	if err := nets[0].Gateway().Unexport(ctx, "x:mobile"); err != nil {
		t.Fatal(err)
	}
	if err := nets[2].Gateway().Export(ctx, desc, home("c")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		got, err := caller.Call(ctx, "x:mobile", "Where", nil)
		if err == nil && got.Str() == "c" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-homed service never callable: %v, %v", got, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Push propagation is milliseconds; anything approaching the old 2s
	// TTL wait means the watch path regressed. 1s leaves CI headroom.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("re-home took %v, want well under the old 2s TTL wait", elapsed)
	} else {
		t.Logf("re-homed service callable after %v", elapsed)
	}
}

func TestFederationScenesAfterClose(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.AddNetwork("a"); err != nil {
		t.Fatal(err)
	}
	// The engine is first requested only after the federation is gone:
	// it must come back already closed, not armable.
	fed.Close()
	eng := fed.Scenes()
	sc := &scene.Scene{
		Name:  "late",
		Steps: []scene.Step{{Kind: scene.StepCall, Service: "x:y", Op: "Ping"}},
	}
	if err := eng.Load(sc); err == nil {
		t.Error("post-Close engine accepted a scene")
	}
}

// newHomeFed builds a named home federation with one network and one
// exported echo service answering with its home name.
func newHomeFed(t *testing.T, home, svcID string) *Federation {
	t.Helper()
	fed, err := NewHomeFederation(home)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	n, err := fed.AddNetwork("net")
	if err != nil {
		t.Fatal(err)
	}
	desc := service.Description{
		ID: svcID, Name: svcID, Middleware: "test",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Where", Output: service.KindString},
		}},
	}
	inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue(home), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Gateway().Export(ctx, desc, inv); err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestFederationPeerRequiresHome(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.Peer("http://127.0.0.1:1/peer"); err == nil {
		t.Error("Peer on an unnamed home accepted")
	}
}

// TestFederationCrossHomeCall: a service registered in home A becomes
// callable from home B through B's own gateway, addressed by its scoped
// ID, with the call travelling the wire to A's gateway.
func TestFederationCrossHomeCall(t *testing.T) {
	a := newHomeFed(t, "home-a", "test:svc")
	b := newHomeFed(t, "home-b", "test:other")
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var got service.Value
	var err error
	for {
		got, err = b.Call(ctx, "home-a/test:svc", "Where")
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("cross-home call never succeeded: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got.Str() != "home-a" {
		t.Fatalf("cross-home call answered %q, want home-a", got.Str())
	}
	// The callee gateway counted a wire call, not a loopback dispatch.
	if loop := b.Network("net").Gateway().CallStats().Loopback; loop != 0 {
		t.Errorf("cross-home call used loopback (%d)", loop)
	}
	st := b.PeerStatus()
	if len(st) != 1 {
		t.Fatalf("PeerStatus = %v, want one link", st)
	}
	for _, s := range st {
		if !s.Connected || s.RemoteHome != "home-a" {
			t.Errorf("link status = %+v, want connected to home-a", s)
		}
	}
}

func TestFederationExportPolicy(t *testing.T) {
	a := newHomeFed(t, "home-a", "test:svc")
	if err := a.SetExportPolicy(peer.Policy{Deny: []string{"test:*"}}); err != nil {
		t.Fatal(err)
	}
	b := newHomeFed(t, "home-b", "test:other")
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	// Wait for the link to connect and sync, then confirm the denied
	// service never arrived.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := false
		for _, s := range b.PeerStatus() {
			if s.Connected && !s.LastSync.IsZero() {
				ok = true
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer link never synced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Call(ctx, "home-a/test:svc", "Where"); err == nil {
		t.Error("policy-denied service callable from peer")
	}
}
