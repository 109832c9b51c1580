package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Home names of the two-home workloads.
const (
	homeA = "home-a"
	homeB = "home-b"
)

// profile fixes one workload's load shape. Rates are ops per second.
type profile struct {
	// rate is the nominal open-loop rate, well below saturation.
	rate float64
	// ladder lists the rate-ladder steps as multiples of rate; the
	// highest step holding the limit is max_rate_ops.
	ladder []float64
	// limitMs is the op_p99_ms limit a ladder step must hold.
	limitMs float64
	// deadline is the per-op deadline a real caller would set.
	deadline time.Duration
	// services is the number of echo services (call workloads).
	services int
	// devices is the preloaded registry working set.
	devices int
	// setups is how many times an untraced run sets the system up to
	// measure setup_s (a traced run sets up once): many short set-ups,
	// fewer long ones.
	setups int
}

// profiles holds every workload's load shape; README.md repeats them.
var profiles = map[string]profile{
	"home-call": {rate: 800, ladder: []float64{1, 2, 3, 4, 5, 6, 7, 8, 10}, limitMs: 10, deadline: 2 * time.Second, services: 48, setups: 41},
	"away-call": {rate: 1000, ladder: []float64{1, 2, 4, 6, 8, 10, 12, 14, 16}, limitMs: 10, deadline: 2 * time.Second, services: 48, setups: 41},
	"churn":     {rate: 250, ladder: []float64{1, 2, 3, 4, 6, 8, 10, 12}, limitMs: 20, deadline: 3 * time.Second, devices: 4096, setups: 9},
	"failover":  {rate: 500, deadline: 5 * time.Second, devices: 1024, setups: 31},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds the workload's other end-to-end metrics, printed but
	// not gated (see infoMetrics).
	Info map[string]metric `json:"-"`
}

// runner holds one run's state.
type runner struct {
	workload string
	prof     profile
	seed     int64
	seconds  int
	trace    bool
	dir, exe string

	rng *rand.Rand
	tr  Tracer
	gen Generator

	procsMu  sync.Mutex
	procs    []*proc // every SUT process started, for CPU accounting
	values   map[string]float64
	failures []string
	// attempted/failed count ops at the nominal rates (ladder steps
	// beyond capacity are the ladder's own business).
	attempted, failed int
	// stopFns tear down whatever the workload left running.
	stopFns []func()
}

func newRunner(workload string, prof profile, seed int64, seconds int, trace bool, dir, exe string) *runner {
	d := &runner{
		workload: workload, prof: prof, seed: seed, seconds: seconds, trace: trace, dir: dir, exe: exe,
		rng:    rand.New(rand.NewSource(seed)),
		gen:    Generator{Slots: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), Deadline: prof.deadline},
		values: make(map[string]float64),
	}
	d.gen.tracer = &d.tr
	return d
}

// run executes the workload and assembles the report.
func (d *runner) run() (*report, error) {
	var err error
	switch d.workload {
	case "home-call":
		err = d.runCalls(false)
	case "away-call":
		err = d.runCalls(true)
	case "churn":
		err = d.runChurn()
	case "failover":
		err = d.runFailover()
	}
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: len(d.failures) == 0, Attempted: d.attempted, Failed: d.failed,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
	collect := func(defs []metricDef, into map[string]metric) error {
		for _, m := range defs {
			v, ok := d.values[m.name]
			if !ok && !d.trace {
				// A traced run reports an idle layer as 0; an untraced
				// run measures every end-to-end metric that applies.
				return fmt.Errorf("metric %s not measured", m.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is %v", m.name, v)
			}
			into[m.name] = metric{Value: v, Unit: m.unit}
		}
		return nil
	}
	if d.trace {
		err = collect(layerMetrics, rep.Metrics)
	} else if err = collect(e2eMetrics, rep.Metrics); err == nil {
		err = collect(infoMetrics[d.workload], rep.Info)
	}
	if err != nil {
		return nil, err
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no ops attempted")
	}
	return rep, nil
}

// shutdown stops everything the run started.
func (d *runner) shutdown() {
	for i := len(d.stopFns) - 1; i >= 0; i-- {
		d.stopFns[i]()
	}
	d.stopFns = nil
	for _, p := range d.procList() {
		select {
		case <-p.done:
		default:
			p.kill()
		}
	}
}

// addProc registers a started SUT process.
func (d *runner) addProc(p *proc) {
	d.procsMu.Lock()
	d.procs = append(d.procs, p)
	d.procsMu.Unlock()
}

// procList returns every SUT process started so far.
func (d *runner) procList() []*proc {
	d.procsMu.Lock()
	defer d.procsMu.Unlock()
	return append([]*proc(nil), d.procs...)
}

// set records a metric value.
func (d *runner) set(name string, v float64) { d.values[name] = v }

// check records a failed output check.
func (d *runner) check(ok bool, format string, args ...any) {
	if !ok {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
}

// share returns a share of the run's measured seconds.
func (d *runner) share(f float64) time.Duration {
	return time.Duration(f * float64(d.seconds) * float64(time.Second))
}

// spawnHome starts one home process and waits for its ready line.
func (d *runner) spawnHome(name string, args ...string) (*proc, homeReady, error) {
	var ready homeReady
	log := filepath.Join(d.dir, fmt.Sprintf("%s-%d.log", name, len(d.procList())))
	p, err := startProc(name, d.exe, append([]string{"home"}, args...), log)
	if err != nil {
		return nil, ready, err
	}
	d.addProc(p)
	line, err := p.readLine(60 * time.Second)
	if err != nil {
		p.kill()
		return nil, ready, fmt.Errorf("%s: %w", name, err)
	}
	if err := json.Unmarshal([]byte(line), &ready); err != nil {
		p.kill()
		return nil, ready, fmt.Errorf("%s: ready line %q: %w", name, line, err)
	}
	return p, ready, nil
}

// subSeed derives a deterministic 32-byte seed for a named input.
func (d *runner) subSeed(what string) []byte {
	h := sha256.Sum256([]byte(strconv.FormatInt(d.seed, 10) + "/" + what))
	return h[:]
}

// freePort picks a free loopback port for a process that must be told
// its address before it starts (a replica-set member). The port is
// drawn below the kernel's ephemeral range: a port that range hands out
// could be taken by some connection's local end between this check and
// the member's listen.
func freePort() (string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	const base = 10000
	if low <= base+1000 {
		return "", fmt.Errorf("ephemeral port range starts at %d, leaving no fixed ports", low)
	}
	for try := 0; try < 100; try++ {
		addr := "127.0.0.1:" + strconv.Itoa(base+rand.Intn(low-base))
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			ln.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free loopback port below %d", low)
}

// openLoop runs op open-loop at rate for dur and counts its ops as
// attempted at the nominal rate when counted is set.
func (d *runner) openLoop(rate float64, dur time.Duration, counted bool, op func(ctx context.Context, i int) error) *Phase {
	sched := Arrivals(d.rng, rate, dur)
	p := d.gen.Run(context.Background(), sched, op)
	if counted {
		d.attempted += len(p.Samples)
		d.failed += p.Failed()
		if err := p.FirstErr(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d/%d ops failed at %.0f/s, first: %v\n",
				d.workload, p.Failed(), len(p.Samples), rate, err)
		}
	}
	return p
}

// opLatency records op_p50_ms and op_p99_ms from the primary-op
// latencies ops (ms) of phase p, and the generator's own lateness.
func (d *runner) opLatency(p *Phase, ops []float64) {
	d.quantiles("op_p50_ms", "op_p99_ms", ops)
	late99, _ := Quantile(p.Lates(), 0.99)
	d.set("loadgen.late_p99_ms", late99)
	d.set("loadgen.backlog_max", float64(p.BacklogMax()))
}

// quantiles records a p50 and a p99 metric of the latencies xs (ms).
func (d *runner) quantiles(p50name, p99name string, xs []float64) {
	p50, err := Quantile(xs, 0.50)
	d.check(err == nil, "%s: %v", p50name, err)
	p99, err := Quantile(xs, 0.99)
	d.check(err == nil, "%s: %v", p99name, err)
	d.set(p50name, p50)
	d.set(p99name, p99)
}

// ladder climbs the workload's rate ladder and records max_rate_ops:
// the measured throughput of the highest step whose op p99 held the
// limit with failures under 0.1% and a generator backlog that did not
// grow. A step gets three attempts — a shared host's stall can sink a
// short step — and climbing stops at the first step that fails all
// three; one more step halfway between the last pass and that failure
// then halves the ladder's quantisation.
func (d *runner) ladder(window time.Duration, makeOp func(n int) func(ctx context.Context, i int) error) {
	// Each step lasts long enough for 150 ops at the nominal rate: a
	// p99 needs 100.
	step := max(window/time.Duration(len(d.prof.ladder)+2),
		time.Duration(150/d.prof.rate*float64(time.Second)))
	try := func(mult float64) (float64, bool) {
		rate := d.prof.rate * mult
		for attempt := 0; attempt < 3; attempt++ {
			p := d.openLoop(rate, step, false, makeOp(int(rate*step.Seconds()*1.5)+64))
			p99, err := Quantile(p.Latencies(), 0.99)
			if err == nil && stepHolds(p, p99, d.prof.limitMs, d.gen.Slots) {
				return p.Throughput(), true
			}
		}
		return 0, false
	}
	best, passed := 0.0, 0.0
	for _, mult := range d.prof.ladder {
		tp, ok := try(mult)
		if !ok {
			if passed > 0 {
				if tp, ok := try((passed + mult) / 2); ok {
					best = tp
				}
			}
			break
		}
		best, passed = tp, mult
	}
	if best == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: ladder: even the nominal rate %.0f/s missed the %.1fms p99 limit\n",
			d.workload, d.prof.rate, d.prof.limitMs)
	}
	d.set("max_rate_ops", best)
}

// stepHolds applies the ladder criteria to one step; p99 is the step's
// op p99 in ms.
func stepHolds(p *Phase, p99, limitMs float64, slots int) bool {
	if len(p.Samples) == 0 || p99 > limitMs {
		return false
	}
	if float64(p.Failed()) > 0.001*float64(len(p.Samples)) {
		return false
	}
	return !p.BacklogGrew(slots)
}

// measureSetups runs setup prof.setups times from scratch (once when
// traced), tearing down all but the last, and records setup_s: the
// median of the set-up times. A set-up that failed an output check is
// not repeated: the run has failed, and goes on only to report what it
// measures.
func (d *runner) measureSetups(setup func() error, teardown func()) error {
	n := d.prof.setups
	if d.trace {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		failed := len(d.failures)
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		if len(d.failures) > failed {
			break
		}
		if i < n-1 {
			teardown()
		}
	}
	d.set("setup_s", Median(secs))
	return nil
}

// sutRSS sums peak RSS over the live SUT processes, in MiB.
func (d *runner) sutRSS() float64 {
	total := 0.0
	for _, p := range d.procList() {
		select {
		case <-p.done:
		default:
			total += peakRSS(p.pid())
		}
	}
	return total
}

// waitFor polls cond every 2ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
