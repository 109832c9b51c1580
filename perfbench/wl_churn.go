package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
)

// churnEnv is the churn system: home A over a durable registry and
// home B importing it over an authenticated (binary) peer link, each
// its own process; the generator registers, renews, removes and finds
// devices on A and watches both registries.
type churnEnv struct {
	d              *runner
	a, b           *proc
	readyA, readyB homeReady
	idA, idB       *identity.Identity
	authA, authB   *identity.Auth
	dialA          *transport.Dialer
	dataDir        string
	w              *vsr.VSR
	m              *regMix
	stopWatch      context.CancelFunc
}

func newChurnEnv(d *runner) (*churnEnv, error) {
	c := &churnEnv{d: d, dataDir: filepath.Join(d.dir, "home-a-data")}
	var err error
	if c.idA, err = identity.FromSeed(homeA, d.subSeed("identity-a")); err != nil {
		return nil, err
	}
	if c.idB, err = identity.FromSeed(homeB, d.subSeed("identity-b")); err != nil {
		return nil, err
	}
	c.authA, c.authB = replayAuth(c.idA, c.idB), identity.NewAuth(homeB)
	if err := c.authB.SetIdentity(c.idB); err != nil {
		return nil, err
	}
	if err := c.authB.Trust(homeA, c.idA.PublicKey()); err != nil {
		return nil, err
	}
	return c, nil
}

// launchA starts home A over the data directory.
func (c *churnEnv) launchA() error {
	p, ready, err := c.d.spawnHome(homeA, "-role", roleChurnA, "-data", c.dataDir,
		"-id-seed", hex.EncodeToString(c.d.subSeed("identity-a")),
		"-trust-home", homeB, "-trust-key", c.idB.PublicKey())
	if err != nil {
		return err
	}
	c.a, c.readyA = p, ready
	c.dialA = transport.NewDialer(c.authA)
	c.w = vsr.New(ready.VSR)
	c.w.SetTTL(time.Hour)
	c.w.SetDialer(c.dialA)
	return nil
}

// client returns a registry client signed as the home that owns url.
func (c *churnEnv) client(url string, auth *identity.Auth) *vsr.VSR {
	v := vsr.New(url)
	v.SetTTL(time.Hour)
	v.SetDialer(transport.NewDialer(auth))
	return v
}

// importWait bounds how long set-up waits for home B to import the
// preloaded working set; a healthy link imports it within a second.
const importWait = 5 * time.Second

// setup starts both homes over a fresh data directory, preloads the
// device working set, waits until home B has imported all of it and
// connects the watchers.
func (c *churnEnv) setup() error {
	if err := os.RemoveAll(c.dataDir); err != nil {
		return err
	}
	if err := c.launchA(); err != nil {
		return err
	}
	p, ready, err := c.d.spawnHome(homeB, "-role", roleChurnB,
		"-id-seed", hex.EncodeToString(c.d.subSeed("identity-b")),
		"-trust-home", homeA, "-trust-key", c.idA.PublicKey(), "-peer", c.readyA.Peer)
	if err != nil {
		return err
	}
	c.b, c.readyB = p, ready
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := c.d.prof.devices
	if err := preloadDevices(ctx, c.w, n); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if !waitFor(importWait, func() bool { return c.imported() >= n }) {
		// The run goes on, so that it still reports what it measures,
		// but it fails.
		var st homeStats
		_ = c.b.command("stats", &st)
		c.d.check(false, "churn: home B imported %d of the %d preloaded devices within %v: %+v", c.imported(), n, importWait, st.Peers)
	}
	c.m = newRegMix(c.w, &c.d.tr, homeA+"/")
	c.m.preloaded(n)
	wctx, stop := context.WithCancel(context.Background())
	c.stopWatch = stop
	upA, err := c.m.watch(wctx, c.client(c.readyA.VSR, c.authA), false)
	if err != nil {
		return err
	}
	upB, err := c.m.watch(wctx, c.client(c.readyB.VSR, c.authB), true)
	if err != nil {
		return err
	}
	for _, up := range []<-chan struct{}{upA, upB} {
		select {
		case <-up:
		case <-ctx.Done():
			return fmt.Errorf("watchers never connected")
		}
	}
	return nil
}

// imported is how many entries home B has imported from A.
func (c *churnEnv) imported() int {
	var st homeStats
	if err := c.b.command("stats", &st); err != nil {
		return -1
	}
	n := 0
	for _, ps := range st.Peers {
		n += ps.Imported
	}
	return n
}

func (c *churnEnv) teardown() {
	if c.stopWatch != nil {
		c.stopWatch()
		c.stopWatch = nil
	}
	if c.dialA != nil {
		c.dialA.Close()
	}
	for _, p := range []*proc{c.b, c.a} {
		if p != nil {
			p.stop()
		}
	}
	c.a, c.b = nil, nil
}

// converged waits until home A holds exactly the acknowledged device
// set and home B's scoped view equals A's, and reports what differs if
// they never do.
func (c *churnEnv) converged() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	viewB := c.client(c.readyB.VSR, c.authB)
	var last error
	ok := waitFor(15*time.Second, func() bool {
		setA, err := deviceSet(ctx, c.w)
		if err != nil {
			last = err
			return false
		}
		if missing, extra := c.m.diff(setA); missing+extra > 0 {
			last = fmt.Errorf("home A lost %d acknowledged registrations and kept %d acknowledged removals", missing, extra)
			return false
		}
		setB, err := deviceSet(ctx, viewB)
		if err != nil {
			last = err
			return false
		}
		if !sameSet(setA, setB) {
			last = fmt.Errorf("home B's view (%d) differs from home A's exports (%d)", len(setB), len(setA))
			return false
		}
		return true
	})
	if !ok {
		return last
	}
	return nil
}

// sameSet reports set equality.
func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// runChurn drives the churn workload.
func (d *runner) runChurn() error {
	c, err := newChurnEnv(d)
	if err != nil {
		return err
	}
	d.stopFns = append(d.stopFns, c.teardown)
	if err := d.measureSetups(c.setup, c.teardown); err != nil {
		return err
	}
	gen := newRegGen(d.rng, churnMix, 3*d.prof.devices, d.prof.devices)
	mix := func(n int) func(ctx context.Context, i int) error {
		c.m.ops = gen.take(n)
		return c.m.op
	}
	nominal := func(share float64) *Phase {
		dur := d.share(share)
		return d.openLoop(d.prof.rate, dur, true, mix(int(d.prof.rate*dur.Seconds()*1.5)+64))
	}
	if d.trace {
		base := nominal(0.4)
		untraced, _ := Quantile(base.Latencies(), 0.5)
		before := c.statsA()
		c.m.resetTimings()
		d.tr.SetOn(true)
		p := d.measured(func() *Phase { return nominal(0.6) })
		d.tr.SetOn(false)
		d.opLatency(p, c.m.writes(p))
		time.Sleep(100 * time.Millisecond) // let the last deltas land
		spans := d.tr.Take()
		d.analyzeTrace(spans, untraced, p)
		d.registryLayers(c.m, spans)
		d.churnLayers(c, before)
	} else {
		c.m.resetTimings()
		p := d.measured(func() *Phase { return nominal(0.6) })
		d.opLatency(p, c.m.writes(p))
		d.set("rss_mb", d.sutRSS())
		time.Sleep(100 * time.Millisecond) // let the last deltas land
		c.m.mu.Lock()
		d.quantiles("propagate_p50_ms", "propagate_p99_ms", durMs(c.m.remote))
		d.quantiles("read_p50_ms", "read_p99_ms", durMs(c.m.reads))
		c.m.mu.Unlock()
		d.ladder(d.share(0.4), mix)
	}
	if err := c.converged(); err != nil {
		d.check(false, "churn: %v", err)
	}
	var stB homeStats
	if err := c.b.command("stats", &stB); err == nil {
		for _, ps := range stB.Peers {
			d.check(ps.Proto == "binary", "churn: home B's peer link rides %q, not the binary wire", ps.Proto)
		}
	}
	return nil
}

// statsA reads home A's counters.
func (c *churnEnv) statsA() homeStats {
	var st homeStats
	if err := c.a.command("stats", &st); err != nil {
		c.d.check(false, "stats: %v", err)
	}
	return st
}

// churnLayers reports churn's counters and replays.
func (d *runner) churnLayers(c *churnEnv, before homeStats) {
	after := c.statsA()
	d.registryCounters(after)
	d.set("uddi.saves", float64(after.Saves-before.Saves))
	d.set("uddi.finds", float64(after.Finds-before.Finds))
	d.set("wal.fsyncs", float64(after.Durability.Fsyncs-before.Durability.Fsyncs))
	d.set("wal.snapshots", float64(after.Durability.Snapshots-before.Durability.Snapshots))
	var stB homeStats
	if err := c.b.command("stats", &stB); err == nil {
		for _, ps := range stB.Peers {
			d.set("peer.applied", float64(ps.Applied))
			d.set("peer.resyncs", float64(ps.Resyncs))
			d.check(ps.Resyncs == 0, "churn: home B's peer link resynced %d times since it came up", ps.Resyncs)
		}
		d.wireCounters(wireTotals(stB.Wire), wireTotals(c.dialA.WireStatsSnapshot()))
	}
	d.walLayers()
	d.set("identity.handshake_us", handshakeReplay(c.idA, c.idB))
}
