package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/transport"
)

// callEnv is the home-call / away-call system: one SUT home process
// exporting echo services, and the caller side in the generator — a
// standalone caller gateway (home-call, open mode, SOAP) or a whole
// home B with identity, trust and audit (away-call, HCB1 binary).
type callEnv struct {
	d    *runner
	away bool

	home  *proc
	ready homeReady
	fedB  *core.Federation
	gw    *vsg.VSG
	// prefix addresses the SUT's services from the caller.
	prefix   string
	idA, idB *identity.Identity
}

func newCallEnv(d *runner, away bool) (*callEnv, error) {
	c := &callEnv{d: d, away: away}
	if !away {
		return c, nil
	}
	var err error
	if c.idA, err = identity.FromSeed(homeA, d.subSeed("identity-a")); err != nil {
		return nil, err
	}
	if c.idB, err = identity.FromSeed(homeB, d.subSeed("identity-b")); err != nil {
		return nil, err
	}
	c.prefix = homeA + "/"
	return c, nil
}

// launch starts the SUT home process.
func (c *callEnv) launch() error {
	args := []string{"-services", strconv.Itoa(c.d.prof.services)}
	if c.away {
		args = append(args, "-role", roleAway,
			"-id-seed", hex.EncodeToString(c.d.subSeed("identity-a")),
			"-trust-home", homeB, "-trust-key", c.idB.PublicKey())
	} else {
		args = append(args, "-role", roleCall)
	}
	p, ready, err := c.d.spawnHome(homeA, args...)
	if err != nil {
		return err
	}
	c.home, c.ready = p, ready
	return nil
}

// attach builds the caller side against the running SUT and preloads
// the working set: every service resolved and called once (for
// away-call this also negotiates the binary session).
func (c *callEnv) attach() error {
	if !c.away {
		gw := vsg.New("caller", c.ready.VSR)
		if c.d.trace {
			gw.SetTransport(&tracedRT{next: transport.Shared(), tr: &c.d.tr})
		}
		if err := gw.Start("127.0.0.1:0"); err != nil {
			return err
		}
		c.gw = gw
		if !waitFor(10*time.Second, func() bool { return gw.Health().WatchActive }) {
			return fmt.Errorf("caller gateway watch never came up")
		}
	} else {
		if c.fedB == nil {
			fed, err := core.NewHomeFederation(homeB)
			if err != nil {
				return err
			}
			c.fedB = fed
			if err := fed.SetIdentity(c.idB); err != nil {
				return err
			}
			if err := fed.TrustHome(homeA, c.idA.PublicKey()); err != nil {
				return err
			}
			if err := fed.EnableAudit(audit.Options{}); err != nil {
				return err
			}
			n, err := fed.AddNetwork("caller")
			if err != nil {
				return err
			}
			c.gw = n.Gateway()
		}
		if err := c.fedB.Peer(c.ready.Peer); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < c.d.prof.services; i++ {
		id := c.prefix + echoServiceID(i)
		if !waitFor(20*time.Second, func() bool { _, err := c.gw.Resolve(ctx, id); return err == nil }) {
			return fmt.Errorf("caller never resolved %s", id)
		}
		if _, err := c.gw.Call(ctx, id, opPing, nil); err != nil {
			return fmt.Errorf("preload call %s: %w", id, err)
		}
	}
	return nil
}

// setup is launch + attach from scratch.
func (c *callEnv) setup() error {
	if err := c.launch(); err != nil {
		return err
	}
	return c.attach()
}

// teardown stops both sides.
func (c *callEnv) teardown() {
	if c.fedB != nil {
		c.fedB.Close()
		c.fedB, c.gw = nil, nil
	}
	if c.gw != nil {
		c.gw.Close()
		c.gw = nil
	}
	if c.home != nil {
		c.home.stop()
		c.home = nil
	}
}

// runCalls drives home-call or away-call.
func (d *runner) runCalls(away bool) error {
	c, err := newCallEnv(d, away)
	if err != nil {
		return err
	}
	d.stopFns = append(d.stopFns, c.teardown)
	if err := d.measureSetups(c.setup, c.teardown); err != nil {
		return err
	}
	if away {
		l := c.callLink()
		d.check(l.Protocol == "binary" && l.Handshakes > 0, "away-call: calls to home A's gateway did not negotiate the binary wire: %+v", l)
	}
	ridBase := int64(0)
	mkCaller := func(n int) *caller {
		cl := &caller{gw: c.gw, prefix: c.prefix, tr: &d.tr, calls: makeCalls(d.rng, n, d.prof.services, ridBase)}
		ridBase += int64(n)
		return cl
	}
	calls := func(n int) func(ctx context.Context, i int) error { return mkCaller(n).call }
	var checked []*caller
	nominal := func(share float64) *Phase {
		dur := d.share(share)
		cl := mkCaller(int(d.prof.rate*dur.Seconds()*1.5) + 64)
		checked = append(checked, cl)
		return d.openLoop(d.prof.rate, dur, true, cl.call)
	}

	if d.trace {
		base := nominal(0.4)
		untraced, _ := Quantile(base.Latencies(), 0.5)
		statsBefore := c.stats()
		d.tr.SetOn(true)
		if err := c.home.command("trace on", nil); err != nil {
			return err
		}
		p := d.measured(func() *Phase { return nominal(0.6) })
		d.tr.SetOn(false)
		d.opLatency(p, p.Latencies())
		statsAfter := c.stats()
		remote, err := c.homeSpans(d)
		if err != nil {
			return err
		}
		d.analyzeTrace(Join(d.tr.Take(), remote), untraced, p)
		d.callLayers(c, checked[len(checked)-1], statsBefore, statsAfter)
		c.checkBinary()
	} else {
		p := d.measured(func() *Phase { return nominal(0.6) })
		d.opLatency(p, p.Latencies())
		d.set("rss_mb", d.sutRSS())
		c.checkBinary()
		// The ladder overloads the system on purpose; a downgrade there
		// shows as a lower max_rate_ops, not as a failed check.
		d.ladder(d.share(0.4), calls)
	}
	for _, cl := range checked {
		d.check(cl.failures.Load() == 0, "%d call results differed from their echoed argument: %v", cl.failures.Load(), cl.firstBad.Load())
	}
	st := c.gw.CallStats()
	d.check(st.Loopback == 0, "caller gateway took the in-process loopback %d times", st.Loopback)
	return nil
}

// stats reads the SUT home's counters.
func (c *callEnv) stats() homeStats {
	var st homeStats
	if err := c.home.command("stats", &st); err != nil {
		c.d.check(false, "stats: %v", err)
	}
	return st
}

// homeSpans stops SUT-side tracing and collects its spans.
func (c *callEnv) homeSpans(d *runner) ([]Span, error) {
	if err := c.home.command("trace off", nil); err != nil {
		return nil, err
	}
	path := d.dir + "/spans-home.json"
	if err := c.home.command("spans "+path, nil); err != nil {
		return nil, err
	}
	return readSpans(path)
}

// checkBinary fails an away-call run whose calls left the binary wire
// during its nominal phase: a silent fallback to signed SOAP would
// measure another path.
func (c *callEnv) checkBinary() {
	if !c.away {
		return
	}
	l := c.callLink()
	c.d.check(l.Protocol == "binary", "away-call: calls to home A's gateway fell back to SOAP during the run: %+v", l)
}

// callLink is home B's wire state towards home A's gateway: the link
// every away-call rides.
func (c *callEnv) callLink() transport.LinkStats {
	return c.fedB.WireStats()[strings.TrimPrefix(c.ready.GW, "http://")]
}

// tracedRT is the RoundTripper installed with VSG.SetTransport in
// traced home-call runs: a transport.http span from request to the
// response body's close, under the call that issued it.
type tracedRT struct {
	next http.RoundTripper
	tr   *Tracer
}

func (t *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := spanFrom(req.Context())
	if ref.h < 0 || !t.tr.On() {
		return t.next.RoundTrip(req)
	}
	h := t.tr.Begin("transport.http", ref.h, ref.rid)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.End(h)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.End(h) }}
	return resp, nil
}

// spanBody ends a span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
