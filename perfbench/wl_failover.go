package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core/replica"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/uddi"
)

// failEnv is the failover system: a three-member vsrd replica set, each
// member its own process with its own data directory.
type failEnv struct {
	d       *runner
	vsrd    string
	addrs   []string
	dirs    []string
	members []*proc
	set     *vsr.VSR
	m       *regMix
}

// failoverKills is how many times a failover run kills its leader. One
// kill per run: each further failover in the same phase left the set
// measurably slower (propagation p50 1.5–2.2 ms against 0.9 ms with
// three kills), so later kills would measure the aftermath of earlier
// ones.
const failoverKills = 1

// medianSecs is the median of ds in seconds.
func medianSecs(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return Median(s)
}

// vsrdHealth is the part of vsrd's /health body the benchmark reads.
type vsrdHealth struct {
	Replication *replica.Status       `json:"replication"`
	Durability  *uddi.DurabilityStats `json:"durability"`
}

func (f *failEnv) url(i int) string { return "http://" + f.addrs[i] + "/uddi" }

// launch starts member i; the first boot of a replica names its leader,
// a restarted member finds the current regime itself.
func (f *failEnv) launch(i int, replicaOf string) error {
	args := []string{"-addr", f.addrs[i], "-data-dir", f.dirs[i]}
	for _, a := range f.addrs {
		args = append(args, "-replica-set", a)
	}
	if replicaOf != "" {
		args = append(args, "-replica-of", replicaOf)
	}
	log := filepath.Join(f.d.dir, fmt.Sprintf("vsrd-%d-%d.log", i, len(f.d.procList())))
	p, err := startProc(fmt.Sprintf("vsrd-%d", i), f.vsrd, args, log)
	if err != nil {
		return err
	}
	p.sigterm = true
	f.d.addProc(p)
	f.members[i] = p
	if _, err := p.waitLine("repository at", 30*time.Second); err != nil {
		return err
	}
	return nil
}

// health reads member i's /health face.
func (f *failEnv) health(i int) (vsrdHealth, error) {
	var h vsrdHealth
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + f.addrs[i] + "/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	if err == nil && h.Replication == nil {
		err = fmt.Errorf("member %d reports no replication", i)
	}
	return h, err
}

// role returns member i's role ("" when unreachable).
func (f *failEnv) role(i int) (replica.Status, bool) {
	h, err := f.health(i)
	if err != nil {
		return replica.Status{}, false
	}
	return *h.Replication, true
}

// caughtUp reports member i attached as a replica with lag 0.
func (f *failEnv) caughtUp(i int) bool {
	st, ok := f.role(i)
	return ok && st.Role == "replica" && st.Attached && st.Lag == 0
}

// setup starts the set over fresh directories and preloads the working
// set.
func (f *failEnv) setup() error {
	f.addrs, f.dirs, f.members = make([]string, 3), make([]string, 3), make([]*proc, 3)
	for i := range f.addrs {
		a, err := freePort()
		if err != nil {
			return err
		}
		f.addrs[i] = a
		f.dirs[i] = filepath.Join(f.d.dir, fmt.Sprintf("member-%d", i))
		if err := os.RemoveAll(f.dirs[i]); err != nil {
			return err
		}
	}
	if err := f.launch(0, ""); err != nil {
		return err
	}
	for i := 1; i < 3; i++ {
		if err := f.launch(i, f.addrs[0]); err != nil {
			return err
		}
	}
	f.set = vsr.NewSet(f.url(0), f.url(1), f.url(2))
	f.set.SetTTL(time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := f.d.prof.devices
	if err := preloadDevices(ctx, f.set, n); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if !waitFor(30*time.Second, func() bool { return f.caughtUp(1) && f.caughtUp(2) }) {
		return fmt.Errorf("replicas never caught up")
	}
	f.m = newRegMix(f.set, &f.d.tr, "")
	f.m.retry = true
	f.m.preloaded(n)
	return nil
}

func (f *failEnv) teardown() {
	for i, p := range f.members {
		if p != nil {
			p.stop()
			f.members[i] = nil
		}
	}
}

// failoverResult is what the kill/restart cycles of one phase measured.
type failoverResult struct {
	kills          []time.Time
	elect, recover []time.Duration
	epochBefore    uint64
	epochAfter     uint64
	leaders        int
	handedBack     int
	replayed       int
	lagMax         uint64
	err            error
}

// leader returns the index of the member reporting the leader role.
func (f *failEnv) leader() (int, bool) {
	for i := range f.members {
		if st, ok := f.role(i); ok && st.Role == "leader" {
			return i, true
		}
	}
	return 0, false
}

// failoverCycles runs beside an open-loop phase of length dur: cycles
// times, it kill -9s whichever member leads, times the election,
// restarts the killed member over its data directory a quarter of a
// cycle later and times its rejoin (attached, lag 0).
func (f *failEnv) failoverCycles(dur time.Duration, cycles int, pollLag bool) *failoverResult {
	r := &failoverResult{}
	start := time.Now()
	if i, ok := f.leader(); ok {
		st, _ := f.role(i)
		r.epochBefore = st.Epoch
	}
	var lagWG sync.WaitGroup
	var lagMax uint64
	lagDone := make(chan struct{})
	if pollLag {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			for {
				select {
				case <-lagDone:
					return
				case <-time.After(50 * time.Millisecond):
				}
				for i := range f.members {
					if st, ok := f.role(i); ok && st.Role == "replica" {
						lagMax = max(lagMax, st.Lag)
					}
				}
			}
		}()
	}
	defer func() {
		close(lagDone)
		lagWG.Wait()
		r.lagMax = lagMax
	}()
	cycle := dur / time.Duration(cycles)
	for c := 0; c < cycles; c++ {
		at := start.Add(time.Duration(c)*cycle + cycle/4)
		time.Sleep(time.Until(at))
		lead, ok := f.leader()
		if !ok {
			r.err = fmt.Errorf("no leader before kill %d", c+1)
			return r
		}
		killed := time.Now()
		r.kills = append(r.kills, killed)
		f.members[lead].kill()
		if !waitFor(20*time.Second, func() bool { i, ok := f.leader(); return ok && i != lead }) {
			r.err = fmt.Errorf("no survivor promoted after kill %d", c+1)
			return r
		}
		r.elect = append(r.elect, time.Since(killed))
		time.Sleep(time.Until(at.Add(cycle / 4)))
		restarted := time.Now()
		if err := f.launch(lead, ""); err != nil {
			r.err = err
			return r
		}
		if !waitFor(30*time.Second, func() bool { return f.caughtUp(lead) }) {
			r.err = fmt.Errorf("member %d never rejoined with lag 0", lead)
			return r
		}
		r.recover = append(r.recover, time.Since(restarted))
		if h, err := f.health(lead); err == nil {
			r.handedBack += h.Replication.HandedBack
			if h.Durability != nil && h.Durability.Recovery != nil {
				r.replayed = h.Durability.Recovery.Replayed
			}
		}
	}
	for i := range f.members {
		if st, ok := f.role(i); ok {
			if st.Role == "leader" {
				r.leaders++
			}
			r.epochAfter = max(r.epochAfter, st.Epoch)
		}
	}
	return r
}

// converged waits until every member holds exactly the acknowledged
// device set.
func (f *failEnv) converged() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var last error
	ok := waitFor(15*time.Second, func() bool {
		for i := range f.members {
			u := f.url(i)
			set, err := deviceSet(ctx, vsr.New(u))
			if err != nil {
				last = err
				return false
			}
			if missing, extra := f.m.diff(set); missing+extra > 0 {
				last = fmt.Errorf("%s lost %d acknowledged registrations and kept %d acknowledged removals",
					strings.TrimSuffix(u, "/uddi"), missing, extra)
				return false
			}
		}
		return true
	})
	if !ok {
		return last
	}
	return nil
}

// runFailover drives the failover workload.
func (d *runner) runFailover() error {
	vsrdBin := filepath.Join(filepath.Dir(d.exe), "vsrd")
	if _, err := os.Stat(vsrdBin); err != nil {
		return fmt.Errorf("vsrd binary: %w", err)
	}
	f := &failEnv{d: d, vsrd: vsrdBin}
	d.stopFns = append(d.stopFns, f.teardown)
	if err := d.measureSetups(f.setup, f.teardown); err != nil {
		return err
	}
	gen := newRegGen(d.rng, failoverMix, 3*d.prof.devices, d.prof.devices)
	mix := func(n int) func(ctx context.Context, i int) error {
		f.m.ops = gen.take(n)
		return f.m.op
	}
	// withFailover runs one nominal phase through failoverCycles: the
	// leader dies a quarter into the phase and restarts at its middle.
	withFailover := func(share float64) (*Phase, *failoverResult) {
		dur := d.share(share)
		res := make(chan *failoverResult, 1)
		go func() { res <- f.failoverCycles(dur, failoverKills, d.trace) }()
		p := d.measured(func() *Phase {
			return d.openLoop(d.prof.rate, dur, true, mix(int(d.prof.rate*dur.Seconds()*1.5)+64))
		})
		return p, <-res
	}
	var p *Phase
	var r *failoverResult
	if d.trace {
		base := d.openLoop(d.prof.rate, d.share(0.4), true, mix(int(d.prof.rate*d.share(0.4).Seconds()*1.5)+64))
		untraced, _ := Quantile(base.Latencies(), 0.5)
		f.m.resetTimings()
		d.tr.SetOn(true)
		p, r = withFailover(0.6)
		d.tr.SetOn(false)
		spans := d.tr.Take()
		d.analyzeTrace(spans, untraced, p)
		d.registryLayers(f.m, spans)
		d.set("replica.elect_s", medianSecs(r.elect))
		d.set("replica.promotions", float64(r.epochAfter-r.epochBefore)/float64(failoverKills))
		d.set("replica.lag_max", float64(r.lagMax))
		d.set("replica.handed_back", float64(r.handedBack))
		d.set("wal.replayed_records", float64(r.replayed))
		d.walLayers()
	} else {
		f.m.resetTimings()
		p, r = withFailover(1)
		d.set("rss_mb", d.sutRSS())
	}
	if r.err != nil {
		return fmt.Errorf("failover: %w", r.err)
	}
	d.opLatency(p, f.m.writes(p))
	f.m.mu.Lock()
	d.quantiles("read_p50_ms", "read_p99_ms", durMs(f.m.reads))
	var unav []time.Duration
	for _, k := range r.kills {
		unav = append(unav, f.m.outage(k))
	}
	f.m.mu.Unlock()
	d.set("unavailable_s", medianSecs(unav))
	d.set("recover_s", medianSecs(r.recover))
	d.check(r.epochAfter == r.epochBefore+failoverKills, "failover: epoch went %d→%d over %d kills, want exactly one promotion per kill",
		r.epochBefore, r.epochAfter, failoverKills)
	d.check(r.leaders == 1, "failover: %d leaders after the killed members rejoined", r.leaders)
	if err := f.converged(); err != nil {
		d.check(false, "failover: %v", err)
	}
	return nil
}
