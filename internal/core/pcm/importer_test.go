package pcm

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// startGateway starts a gateway named name on the repository at url.
func startGateway(t *testing.T, name, url string) *vsg.VSG {
	t.Helper()
	gw := vsg.New(name, url)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// answer returns an invoker that answers every call with s.
func answer(s string) service.Invoker {
	return service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue(s), nil
	})
}

// proxies records the offers of its importer, imp: the invoker of every
// live proxy (built as the bridges build theirs, with imp.Invoker) and how
// many proxies were ever removed.
type proxies struct {
	gw  *vsg.VSG
	imp *Importer

	mu      sync.Mutex
	live    map[string]service.Invoker
	removed int
}

// newProxies returns the recorder of a fresh importer for middleware "mw"
// whose Offer is p.offer; a test may wrap that Offer before running it.
func newProxies(gw *vsg.VSG) *proxies {
	p := &proxies{gw: gw, live: make(map[string]service.Invoker)}
	p.imp = &Importer{Middleware: "mw", Offer: p.offer}
	return p
}

func (p *proxies) offer(_ context.Context, r vsr.Remote) (func(), error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live[r.Desc.ID] = p.imp.Invoker(p.gw, r)
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		delete(p.live, r.Desc.ID)
		p.removed++
	}, nil
}

func (p *proxies) get(id string) service.Invoker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live[id]
}

func (p *proxies) has(id string) bool { return p.get(id) != nil }

// runImporter runs imp on gw until the test ends.
func runImporter(t *testing.T, imp *Importer, gw *vsg.VSG) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { imp.Run(ctx, gw); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
}

// registerForeign registers a service of middleware "other" on network
// net9 straight into the repository, as another home's gateway would.
func registerForeign(t *testing.T, repo *vsr.VSR, id string) string {
	t.Helper()
	desc := echoDesc(id, "other")
	desc.Context = map[string]string{service.CtxNetwork: "net9"}
	key, err := repo.Register(context.Background(), desc, "http://10.0.0.9/services/"+id)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// answersWithin fails the test unless the live proxy for id answers want
// within a second.
func answersWithin(t *testing.T, p *proxies, id, want string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		var v service.Value
		err := fmt.Errorf("no proxy for %s", id)
		if proxy := p.get(id); proxy != nil {
			v, err = proxy.Invoke(context.Background(), "Echo", []service.Value{service.StringValue("hi")})
		}
		if err == nil && v.Str() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the proxy for %s answers %v, %v; want %q", id, v, err, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestImporterProxyFollowsRehome: a service unexported on network a and
// exported on network c back to back (a delete, then an add) is answered
// from c by b's proxy within a second. The delete removes the old proxy
// and the add offers a new one.
func TestImporterProxyFollowsRehome(t *testing.T) {
	srv, gwB := newGateway(t, "b")
	gwA := startGateway(t, "a", srv.URL())
	gwC := startGateway(t, "c", srv.URL())
	ctx := context.Background()
	if err := gwA.Export(ctx, echoDesc("other:x", "other"), answer("from a")); err != nil {
		t.Fatal(err)
	}

	p := newProxies(gwB)
	runImporter(t, p.imp, gwB)
	waitFor(t, func() bool { return p.has("other:x") })
	answersWithin(t, p, "other:x", "from a")

	if err := gwA.Unexport(ctx, "other:x"); err != nil {
		t.Fatal(err)
	}
	if err := gwC.Export(ctx, echoDesc("other:x", "other"), answer("from c")); err != nil {
		t.Fatal(err)
	}
	answersWithin(t, p, "other:x", "from c")
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.removed != 1 {
		t.Fatalf("%d proxies removed; want 1 (the delete removes a's)", p.removed)
	}
}

// TestImporterProxyFollowsReregistration: a service re-registered under
// the same ID at network c's endpoint (an update, while a still serves
// it) keeps the proxy b offered, and that proxy answers from c: it calls
// the endpoint the gateway's view holds, so it reaches c once b's
// gateway has seen the update.
func TestImporterProxyFollowsReregistration(t *testing.T) {
	srv, gwB := newGateway(t, "b")
	gwA := startGateway(t, "a", srv.URL())
	gwC := startGateway(t, "c", srv.URL())
	ctx := context.Background()
	if err := gwA.Export(ctx, echoDesc("other:x", "other"), answer("from a")); err != nil {
		t.Fatal(err)
	}

	p := newProxies(gwB)
	runImporter(t, p.imp, gwB)
	waitFor(t, func() bool { return p.has("other:x") })
	answersWithin(t, p, "other:x", "from a")

	if err := gwC.Export(ctx, echoDesc("other:x", "other"), answer("from c")); err != nil {
		t.Fatal(err)
	}
	answersWithin(t, p, "other:x", "from c")
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.removed != 0 {
		t.Fatalf("%d proxies removed; want 0 (an update re-offers nothing)", p.removed)
	}
}

// TestImporterRetriesFailedOffer: an Offer that fails once in an idle
// registry is retried, with no registry change to prompt it.
func TestImporterRetriesFailedOffer(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	registerForeign(t, vsr.New(srv.URL()), "other:flaky")
	p := newProxies(gw)
	var mu sync.Mutex
	calls := 0
	p.imp.Offer = func(ctx context.Context, r vsr.Remote) (func(), error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			return nil, fmt.Errorf("port busy")
		}
		return p.offer(ctx, r)
	}
	runImporter(t, p.imp, gw)
	waitFor(t, func() bool { return p.has("other:flaky") })
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("Offer called %d times; want 2", calls)
	}
}

// TestImporterIdleSendsNoFinds: once its proxies are offered, an idle
// importer sends the repository no inquiries.
func TestImporterIdleSendsNoFinds(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	repo := vsr.New(srv.URL())
	for i := range 3 {
		registerForeign(t, repo, fmt.Sprintf("other:s%d", i))
	}
	p := newProxies(gw)
	imp := p.imp
	runImporter(t, imp, gw)
	waitFor(t, func() bool { return imp.OfferedCount() == 3 })

	_, before := srv.Registry().Stats()
	time.Sleep(2 * time.Second)
	if _, after := srv.Registry().Stats(); after != before {
		t.Fatalf("registry finds went %d -> %d over 2s of idle importing", before, after)
	}
}

// TestImporterRegroundsAfterGap: changes that land while Offer is busy
// and outrun the journal reach the importer through the resync's walk; a
// service deleted in that gap loses its proxy.
func TestImporterRegroundsAfterGap(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	srv.Registry().SetJournalCapacity(4)
	repo := vsr.New(srv.URL())
	gone := registerForeign(t, repo, "other:gone")

	p := newProxies(gw)
	blocked, release := make(chan struct{}), make(chan struct{})
	imp := p.imp
	imp.Offer = func(ctx context.Context, r vsr.Remote) (func(), error) {
		if r.Desc.ID == "other:slow" {
			close(blocked)
			<-release
		}
		return p.offer(ctx, r)
	}
	runImporter(t, imp, gw)
	waitFor(t, func() bool { return p.has("other:gone") })

	registerForeign(t, repo, "other:slow")
	<-blocked
	if err := repo.Unregister(context.Background(), gone); err != nil {
		t.Fatal(err)
	}
	for i := range 6 {
		registerForeign(t, repo, fmt.Sprintf("other:late%d", i))
	}
	close(release)

	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.live) == 7 && p.live["other:gone"] == nil
	})
	for _, id := range []string{"other:slow", "other:late0", "other:late5"} {
		if !p.has(id) {
			t.Errorf("no proxy for %s after the re-ground", id)
		}
	}
	if n := imp.OfferedCount(); n != 7 {
		t.Errorf("OfferedCount = %d after the re-ground; want 7", n)
	}
}

// TestImporterKeepsProxiesThroughOutage: a repository that goes away
// takes no proxy with it.
func TestImporterKeepsProxiesThroughOutage(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	repo := vsr.New(srv.URL())
	for i := range 3 {
		registerForeign(t, repo, fmt.Sprintf("other:s%d", i))
	}
	p := newProxies(gw)
	imp := p.imp
	runImporter(t, imp, gw)
	waitFor(t, func() bool { return imp.OfferedCount() == 3 })

	srv.Close()
	time.Sleep(1500 * time.Millisecond) // several failed rounds
	p.mu.Lock()
	live, removed := len(p.live), p.removed
	p.mu.Unlock()
	if live != 3 || removed != 0 || imp.OfferedCount() != 3 {
		t.Fatalf("after the outage: %d live proxies, %d removed, OfferedCount %d; want 3, 0, 3",
			live, removed, imp.OfferedCount())
	}
}

// TestImporterIgnoresGatewayCacheSettings: a gateway with no watch and no
// resolve cache still gets its proxies, and they call through without
// asking the repository: they resolve from the gateway's view.
func TestImporterIgnoresGatewayCacheSettings(t *testing.T) {
	srv, gwA := newGateway(t, "a")
	if err := gwA.Export(context.Background(), echoDesc("other:x", "other"), answer("from a")); err != nil {
		t.Fatal(err)
	}
	gw := vsg.New("b", srv.URL())
	gw.SetWatchEnabled(false)
	gw.SetCacheTTL(0)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	p := newProxies(gw)
	runImporter(t, p.imp, gw)
	waitFor(t, func() bool { return p.has("other:x") })
	_, before := srv.Registry().Stats()
	v, err := p.get("other:x").Invoke(context.Background(), "Echo", []service.Value{service.StringValue("hi")})
	if err != nil || v.Str() != "from a" {
		t.Fatalf("proxy call: %v, %v; want \"from a\"", v, err)
	}
	if _, after := srv.Registry().Stats(); after != before {
		t.Fatalf("a proxy call sent %d registry finds; want 0", after-before)
	}
}

// trafficCount carries a gateway's SOAP/HTTP traffic and counts the
// registry walks it starts (first-page state_page requests) and the most
// watch requests parked at the repository at once. Between hold and
// release, watch replies wait in the carrier, so the test can make the
// journal outrun the gateway.
type trafficCount struct {
	mu                       sync.Mutex
	walks, parked, maxParked int
	held                     chan struct{} // closed by release
	waiting                  chan struct{} // one value per reply held
}

func (c *trafficCount) RoundTrip(req *http.Request) (*http.Response, error) {
	var doc []byte
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			doc, _ = io.ReadAll(body)
		}
	}
	watch := bytes.Contains(doc, []byte("<watch>"))
	c.mu.Lock()
	if bytes.Contains(doc, []byte("<state_page>")) && bytes.Contains(doc, []byte("<after></after>")) {
		c.walks++
	}
	if watch {
		c.parked++
		c.maxParked = max(c.maxParked, c.parked)
	}
	c.mu.Unlock()
	resp, err := transport.Shared().RoundTrip(req)
	if watch {
		c.mu.Lock()
		c.parked--
		held, waiting := c.held, c.waiting
		c.mu.Unlock()
		if held != nil {
			waiting <- struct{}{}
			<-held
		}
	}
	return resp, err
}

func (c *trafficCount) hold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held, c.waiting = make(chan struct{}), make(chan struct{}, 8)
}

func (c *trafficCount) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.held)
	c.held = nil
}

func (c *trafficCount) counts() (walks, maxParked int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.walks, c.maxParked
}

// TestImporterSharesGatewayView: an importer reads its gateway's view of
// the registry instead of keeping its own, so the gateway walks the
// registry once at first contact and once per journal overrun, and parks
// one watch at a time, importer or not.
func TestImporterSharesGatewayView(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Registry().SetJournalCapacity(2)
	repo := vsr.New(srv.URL())
	registerForeign(t, repo, "other:s0")

	count := &trafficCount{}
	gw := vsg.New("net1", srv.URL())
	gw.SetBinaryEnabled(false)
	gw.SetTransport(count)
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	p := newProxies(gw)
	runImporter(t, p.imp, gw)
	waitFor(t, func() bool { return p.has("other:s0") && gw.Health().WatchActive })
	if walks, _ := count.counts(); walks != 1 {
		t.Fatalf("first contact walked the registry %d times; want 1", walks)
	}

	// The overrun: the gateway's next watch reply waits while more
	// changes land than the journal keeps.
	count.hold()
	registerForeign(t, repo, "other:s1")
	select {
	case <-count.waiting:
	case <-time.After(5 * time.Second):
		t.Fatal("no watch reply came back to hold")
	}
	for i := 2; i < 6; i++ {
		registerForeign(t, repo, fmt.Sprintf("other:s%d", i))
	}
	count.release()
	waitFor(t, func() bool { return gw.Health().WatchResyncs == 1 && p.has("other:s5") })
	for i := range 6 {
		if id := fmt.Sprintf("other:s%d", i); !p.has(id) {
			t.Errorf("no proxy for %s after the overrun", id)
		}
	}
	walks, maxParked := count.counts()
	if walks != 2 {
		t.Errorf("one journal overrun took %d walks in all; want 2", walks)
	}
	if maxParked > 1 {
		t.Errorf("%d watches parked at once; want at most 1", maxParked)
	}
}

// TestImporterSlowOfferLeavesViewCurrent: while an Offer is blocked, the
// gateway's view keeps following the registry, so a service registered
// meanwhile resolves within a second with no registry inquiry.
func TestImporterSlowOfferLeavesViewCurrent(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	repo := vsr.New(srv.URL())
	p := newProxies(gw)
	blocked, release := make(chan struct{}), make(chan struct{})
	p.imp.Offer = func(ctx context.Context, r vsr.Remote) (func(), error) {
		if r.Desc.ID == "other:slow" {
			close(blocked)
			<-release
		}
		return p.offer(ctx, r)
	}
	runImporter(t, p.imp, gw)
	t.Cleanup(func() { close(release) }) // before the importer stops
	registerForeign(t, repo, "other:slow")
	<-blocked

	_, before := srv.Registry().Stats()
	registerForeign(t, repo, "other:new")
	deadline := time.Now().Add(time.Second)
	for _, ok := gw.Viewed("other:new"); !ok; _, ok = gw.Viewed("other:new") {
		if time.Now().After(deadline) {
			t.Fatal("other:new never reached the gateway's view while an Offer was blocked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := gw.Resolve(context.Background(), "other:new"); err != nil {
		t.Fatal(err)
	}
	if _, after := srv.Registry().Stats(); after != before {
		t.Errorf("resolving other:new cost %d registry inquiries; want 0", after-before)
	}
}
