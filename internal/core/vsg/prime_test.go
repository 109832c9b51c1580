package vsg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// cached reports whether the gateway resolves id without an inquiry
// (expiry aside): from its view while Resolve reads it, or from its poll
// cache.
func cached(g *VSG, id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.view[id]; ok && g.watchUp && g.cacheTTL > 0 {
		return true
	}
	_, ok := g.polled[id]
	return ok
}

// waitCached waits until the gateway's watch has put id in its view.
func waitCached(t *testing.T, g *VSG, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cached(g, id) {
		if time.Now().After(deadline) {
			t.Fatalf("watch never delivered %s into the view", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// registerLamps registers n lamps directly with the repository at url.
func registerLamps(t *testing.T, url string, n int) []string {
	t.Helper()
	ids := make([]string, n)
	regs := make([]vsr.Registration, n)
	for i := range regs {
		ids[i] = fmt.Sprintf("jini:lamp-%03d", i)
		regs[i] = vsr.Registration{Desc: lampDesc(ids[i]), Endpoint: "http://198.51.100.7:1/services/" + ids[i]}
	}
	if _, err := vsr.New(url).RegisterAll(context.Background(), regs); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestWatchPrimesResolveCache: a gateway started against a registry that
// already holds N services grounds its cache from the registry's pages
// when its watch comes up, so resolving every one of them costs no
// registry inquiry.
func TestWatchPrimesResolveCache(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := registerLamps(t, srv.URL(), 64)

	gw := New("net2", srv.URL())
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	waitWatchActive(t, gw)
	_, before := srv.Registry().Stats()
	for _, id := range ids {
		r, err := gw.Resolve(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if want := "http://198.51.100.7:1/services/" + id; r.Endpoint != want {
			t.Fatalf("%s resolved to %q, want %q", id, r.Endpoint, want)
		}
	}
	if _, after := srv.Registry().Stats(); after != before {
		t.Errorf("resolving %d services after the watch came up cost %d registry inquiries, want 0", len(ids), after-before)
	}
}

// manualWatch is a gateway whose watch the test drives round by round,
// against a repository whose clock and expiry the test controls.
type manualWatch struct {
	vc    *vclock.Virtual
	reg   *uddi.Server
	srv   *vsr.Server
	gw    *VSG
	f     *vsr.Follower
	walks uint64 // grounds the follower ran
}

func newManualWatch(t *testing.T) *manualWatch {
	t.Helper()
	vc := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	reg := uddi.NewManualServer()
	reg.SetClock(vc.Now)
	srv, err := vsr.StartServerWith("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	gw := New("net2", srv.URL())
	t.Cleanup(gw.Close)
	m := &manualWatch{vc: vc, reg: reg, srv: srv, gw: gw}
	m.f = gw.vsr.Follow(func(ctx context.Context) (uint64, error) {
		m.walks++
		return gw.ground(ctx)
	}, gw.applyDelta)
	return m
}

// step drives one watch round.
func (m *manualWatch) step(t *testing.T) {
	t.Helper()
	if err := m.f.Step(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// finds is the registry's inquiry count.
func (m *manualWatch) finds() int64 {
	_, n := m.reg.Stats()
	return n
}

// TestResyncRegroundsFromPages: when the journal skips past the
// gateway's cursor, the gateway re-grounds its cache from the registry's
// pages instead of flushing it: a service deleted during the gap is
// gone, and every other one still resolves with no registry inquiry.
func TestResyncRegroundsFromPages(t *testing.T) {
	m := newManualWatch(t)
	ids := registerLamps(t, m.srv.URL(), 8)
	m.step(t) // Up: grounded from pages
	for _, id := range ids {
		if _, err := m.gw.Resolve(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	// The gap: the journal keeps two changes, and four happen.
	m.reg.SetJournalCapacity(2)
	v := vsr.New(m.srv.URL())
	if err := v.Unregister(context.Background(), "uuid:svc-"+ids[0]); err != nil {
		t.Fatal(err)
	}
	moved := "http://203.0.113.9:1/services/" + ids[1]
	for i := 0; i < 3; i++ {
		if _, err := v.Register(context.Background(), lampDesc(ids[1]), moved); err != nil {
			t.Fatal(err)
		}
	}
	m.step(t)
	if h := m.gw.Health(); h.WatchResyncs != 1 {
		t.Fatalf("watch resyncs = %d, want 1", h.WatchResyncs)
	}
	if cached(m.gw, ids[0]) {
		t.Errorf("%s, deleted during the gap, is still cached", ids[0])
	}
	before := m.finds()
	for _, id := range ids[1:] {
		r, err := m.gw.Resolve(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if id == ids[1] && r.Endpoint != moved {
			t.Errorf("%s resolved to %q after re-grounding, want %q", id, r.Endpoint, moved)
		}
	}
	if after := m.finds(); after != before {
		t.Errorf("resolves after re-grounding cost %d registry inquiries, want 0", after-before)
	}
}

// TestDeltaFillsAndEvicts: every add delta puts its service in the
// cache, whether or not anyone resolved it, and a delete or expire delta
// takes it out.
func TestDeltaFillsAndEvicts(t *testing.T) {
	m := newManualWatch(t)
	m.step(t) // Up on an empty registry
	ctx := context.Background()
	v := vsr.New(m.srv.URL())
	if _, err := v.Register(ctx, lampDesc("jini:lamp-del"), "http://h/del"); err != nil {
		t.Fatal(err)
	}
	v.SetTTL(time.Second)
	if _, err := v.Register(ctx, lampDesc("jini:lamp-exp"), "http://h/exp"); err != nil {
		t.Fatal(err)
	}
	m.step(t)
	for _, id := range []string{"jini:lamp-del", "jini:lamp-exp"} {
		if !cached(m.gw, id) {
			t.Fatalf("add delta for %s did not fill the cache", id)
		}
	}

	if err := v.Unregister(ctx, "uuid:svc-jini:lamp-del"); err != nil {
		t.Fatal(err)
	}
	m.step(t)
	if cached(m.gw, "jini:lamp-del") {
		t.Error("delete delta did not evict")
	}
	m.vc.Advance(2 * time.Second)
	m.reg.Sweep()
	m.step(t)
	if cached(m.gw, "jini:lamp-exp") {
		t.Error("expire delta did not evict")
	}
	if h := m.gw.Health(); h.CacheInvalidations != 2 {
		t.Errorf("cache invalidations = %d, want 2", h.CacheInvalidations)
	}
}

// grounds is the number of times the follower grounded the gateway's
// view, plus the gateway's watch outages (a failed walk is one).
func (m *manualWatch) grounds() uint64 {
	m.gw.mu.Lock()
	defer m.gw.mu.Unlock()
	return m.walks + m.gw.cacheGen
}

// TestFirstStepOnTrimmedJournalWalksOnce: a gateway meeting a repository
// whose journal no longer covers seq 0 walks the registry once, before
// its first round, and that round starts past the walk — not a resync
// that walks everything a second time.
func TestFirstStepOnTrimmedJournalWalksOnce(t *testing.T) {
	m := newManualWatch(t)
	m.reg.SetJournalCapacity(2)
	ids := registerLamps(t, m.srv.URL(), 8)
	m.step(t)
	if h := m.gw.Health(); h.WatchResyncs != 0 || !h.WatchActive {
		t.Fatalf("after the first step: %d resyncs, watch active %v; want 0, true", h.WatchResyncs, h.WatchActive)
	}
	if n := m.grounds(); n != 1 {
		t.Fatalf("first contact walked the registry %d times, want 1", n)
	}
	for _, id := range ids {
		if !cached(m.gw, id) {
			t.Fatalf("%s not cached after the first step", id)
		}
	}
}

// TestFailedWalkFlushesCache: a ground whose walk fails leaves no
// resolution served — with no ground truth any of them may be stale —
// and fences out lookups in flight.
func TestFailedWalkFlushesCache(t *testing.T) {
	m := newManualWatch(t)
	ids := registerLamps(t, m.srv.URL(), 4)
	m.step(t)
	if !cached(m.gw, ids[0]) {
		t.Fatal("walk did not fill the cache")
	}
	gen := m.grounds()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.gw.ground(ctx); err == nil {
		t.Fatal("walk under a cancelled context succeeded")
	}
	for _, id := range ids {
		if cached(m.gw, id) {
			t.Errorf("%s still cached after a failed walk", id)
		}
	}
	if m.grounds() != gen+1 {
		t.Errorf("cache generation %d after a failed walk, want %d", m.grounds(), gen+1)
	}
	if h := m.gw.Health(); h.CacheInvalidations != uint64(len(ids)) {
		t.Errorf("cache invalidations = %d, want %d", h.CacheInvalidations, len(ids))
	}
}

// holdFinds carries a gateway's SOAP/HTTP traffic and holds the reply to
// each registry inquiry (find_service) until the test releases it, so
// the test can act while the inquiry is in flight.
type holdFinds struct {
	held    chan struct{}
	release chan struct{}
}

func (h *holdFinds) RoundTrip(req *http.Request) (*http.Response, error) {
	var doc []byte
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			doc, _ = io.ReadAll(body)
		}
	}
	resp, err := transport.Shared().RoundTrip(req)
	if bytes.Contains(doc, []byte("find_service")) {
		h.held <- struct{}{}
		<-h.release
	}
	return resp, err
}

// TestResolveFillRule: while the watch is up Resolve reads exactly the
// watch's view — a miss is answered but fills nothing, and the delta
// fills it. While the watch is down a miss fills the cache, unless an
// outage happened while its inquiry was in flight, and an answer read
// before a ground never overwrites what the ground read.
func TestResolveFillRule(t *testing.T) {
	m := newManualWatch(t)
	hold := &holdFinds{held: make(chan struct{}), release: make(chan struct{})}
	m.gw.SetTransport(hold)
	m.gw.SetBinaryEnabled(false)
	ctx := context.Background()
	v := vsr.New(m.srv.URL())
	register := func(id, endpoint string) {
		t.Helper()
		if _, err := v.Register(ctx, lampDesc(id), endpoint); err != nil {
			t.Fatal(err)
		}
	}
	// resolve runs one Resolve whose inquiry is held while act runs.
	resolve := func(id string, act func()) vsr.Remote {
		t.Helper()
		type result struct {
			r   vsr.Remote
			err error
		}
		done := make(chan result, 1)
		go func() {
			r, err := m.gw.Resolve(ctx, id)
			done <- result{r, err}
		}()
		<-hold.held
		act()
		hold.release <- struct{}{}
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.r
	}
	down := func() { m.gw.applyDelta(vsr.Delta{Op: vsr.DeltaDown, Err: errors.New("stream lost")}) }

	m.step(t) // Up on an empty registry
	register("jini:lamp-1", "http://h/1")
	if r := resolve("jini:lamp-1", func() {}); r.Endpoint != "http://h/1" {
		t.Fatalf("resolved %q, want http://h/1", r.Endpoint)
	}
	if cached(m.gw, "jini:lamp-1") {
		t.Fatal("a miss filled the cache while the watch was up")
	}
	m.step(t)
	if !cached(m.gw, "jini:lamp-1") {
		t.Fatal("the add delta did not fill the cache")
	}

	down()
	register("jini:lamp-2", "http://h/2")
	resolve("jini:lamp-2", func() {})
	if !cached(m.gw, "jini:lamp-2") {
		t.Fatal("a miss did not fill the cache while the watch was down")
	}

	register("jini:lamp-3", "http://h/3")
	resolve("jini:lamp-3", down)
	if cached(m.gw, "jini:lamp-3") {
		t.Fatal("an inquiry in flight across an outage filled the cache")
	}

	// The held inquiry read the old endpoint; the ground read the new
	// one, and the stale answer must not overwrite it.
	r := resolve("jini:lamp-3", func() {
		register("jini:lamp-3", "http://h/3-moved")
		if _, err := m.gw.ground(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if r.Endpoint != "http://h/3" {
		t.Fatalf("held inquiry answered %q, want the old endpoint http://h/3", r.Endpoint)
	}
	if got, _ := m.gw.Viewed("jini:lamp-3"); got.Endpoint != "http://h/3-moved" {
		t.Fatalf("view holds %q after a ground during the inquiry, want http://h/3-moved", got.Endpoint)
	}
}
