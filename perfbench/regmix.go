package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/neighborhood"
	"homeconnect/internal/service"
)

// Registry op kinds of the device-churn mix.
const (
	regJoin  = iota // register a device that is not live
	regRenew        // re-register a live device
	regLeave        // unregister a live device
	regFind         // find one device by ID
)

// regMixShares is the share of register, leave and find events in a
// registry workload's traffic.
type regMixShares struct{ register, leave, find float64 }

// presetMix derives a workload's mix from the event rates of one of
// the repository's neighborhood simulation presets, so both describe
// the same traffic: a register event is the preset's RegisterRate, a
// leave its ExpireRate, and a find either its ReadRate — lookups sent
// to a replica set — or, without one, its CallRate, whose calls each
// start with a registry resolve.
func presetMix(s neighborhood.Scenario) regMixShares {
	find := s.CallRate
	if s.ReadRate > 0 {
		find = s.ReadRate
	}
	total := s.RegisterRate + s.ExpireRate + find
	return regMixShares{s.RegisterRate / total, s.ExpireRate / total, find / total}
}

// churnMix is the churn workload's mix: the "churn" preset (register
// 0.5, expire 0.4, call 0.2 per second). failoverMix is the failover
// workload's: the "replica-failover" preset (register 0.5, expire 0.4,
// 5 set reads per second).
var (
	churnMix    = presetMix(neighborhood.Churn(1))
	failoverMix = presetMix(neighborhood.ReplicaFailover(1))
)

// regOp is one generated registry operation.
type regOp struct {
	kind   int
	device int
}

// deviceClasses partitions the devices over middleware categories, so
// that listing a registry's devices takes several finds of bounded size
// rather than one response holding the whole working set.
const deviceClasses = 16

// deviceID names working-set device i.
func deviceID(i int) string { return fmt.Sprintf("dev%d:d-%05d", i%deviceClasses, i) }

// deviceDescription describes device i: one small interface, the shape
// a PCM publishes for an appliance.
func deviceDescription(i int) service.Description {
	id := deviceID(i)
	return service.Description{
		ID: id, Name: id, Middleware: fmt.Sprintf("dev%d", i%deviceClasses),
		Interface: service.Interface{Name: "Switch", Operations: []service.Operation{
			{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
		}},
	}
}

// deviceEndpoint is the (never called) gateway endpoint device i is
// published at.
func deviceEndpoint(i int) string {
	return "http://127.0.0.1:9/services/" + deviceID(i)
}

// liveSet tracks which devices are registered, with O(1) random picks.
type liveSet struct {
	live, dead []int
	pos        map[int]int  // device → index in live or dead
	on         map[int]bool // device → live
}

func newLiveSet(total, preloaded int) *liveSet {
	s := &liveSet{pos: make(map[int]int, total), on: make(map[int]bool, total)}
	for i := 0; i < total; i++ {
		s.on[i] = i < preloaded
		if i < preloaded {
			s.pos[i] = len(s.live)
			s.live = append(s.live, i)
		} else {
			s.pos[i] = len(s.dead)
			s.dead = append(s.dead, i)
		}
	}
	return s
}

func (s *liveSet) isLive(d int) bool { return s.on[d] }

func (s *liveSet) move(d int, toLive bool) {
	s.on[d] = toLive
	from, to := &s.dead, &s.live
	if !toLive {
		from, to = &s.live, &s.dead
	}
	i := s.pos[d]
	last := (*from)[len(*from)-1]
	(*from)[i] = last
	s.pos[last] = i
	*from = (*from)[:len(*from)-1]
	s.pos[d] = len(*to)
	*to = append(*to, d)
}

// recentWindow is the minimum op distance between two writes to one
// device.
const recentWindow = 256

// regGen generates a registry mix over a universe of devices. A
// register event names any device of the universe — a join when the
// device is not live, a renewal when it is — a leave names a live
// device, and a find any device. It replays the live set sequentially,
// so every leave and renew names a device the schedule registered
// earlier, and it keeps ops on one device at least recentWindow apart,
// so two in-flight writes never race on the same key and the
// acknowledged state is the state the registry must end in.
type regGen struct {
	rng    *rand.Rand
	mix    regMixShares
	s      *liveSet
	total  int
	recent map[int]int // device → index of its latest op
	n      int         // ops generated so far
}

// newRegGen starts a generator whose first preloaded devices are live.
func newRegGen(rng *rand.Rand, mix regMixShares, total, preloaded int) *regGen {
	return &regGen{rng: rng, mix: mix, s: newLiveSet(total, preloaded), total: total, recent: make(map[int]int)}
}

// fresh reports whether no recent op touched device d.
func (g *regGen) fresh(d int) bool {
	last, ok := g.recent[d]
	return !ok || g.n-last >= recentWindow
}

// pick draws a device that no recent op touched from the universe
// (from == nil) or from the given list.
func (g *regGen) pick(from []int) (int, bool) {
	for try := 0; try < 16; try++ {
		var d int
		if from == nil {
			d = g.rng.Intn(g.total)
		} else if len(from) > 0 {
			d = from[g.rng.Intn(len(from))]
		} else {
			break
		}
		if g.fresh(d) {
			return d, true
		}
	}
	return 0, false
}

// take generates the next n ops.
func (g *regGen) take(n int) []regOp {
	ops := make([]regOp, 0, n)
	for len(ops) < n {
		var o regOp
		switch x := g.rng.Float64(); {
		case x < g.mix.register:
			d, ok := g.pick(nil)
			if !ok {
				continue
			}
			o = regOp{regRenew, d}
			if !g.s.isLive(d) {
				g.s.move(d, true)
				o.kind = regJoin
			}
		case x < g.mix.register+g.mix.leave:
			d, ok := g.pick(g.s.live)
			if !ok {
				continue
			}
			g.s.move(d, false)
			o = regOp{regLeave, d}
		default:
			o = regOp{regFind, g.rng.Intn(g.total)}
		}
		if o.kind != regFind {
			g.recent[o.device] = g.n
		}
		g.n++
		ops = append(ops, o)
	}
	return ops
}

// regMix drives registry ops against a home's repository and times
// register→visible on up to two watchers: one on the same registry
// (local) and one in another process or home (remote).
type regMix struct {
	v     *vsr.VSR // the registry client every op goes through
	tr    *Tracer
	ops   []regOp
	scope string // prefix remote deltas carry ("home-a/" for a peer import)

	// retry makes op retry a failed attempt until its deadline.
	retry bool

	mu sync.Mutex
	// sentLocal and sentRemote map a device ID to when its latest
	// register was sent, one table per watcher; localAt is when the
	// local watcher saw it, the start of the peer hop.
	sentLocal, sentRemote map[string]time.Time
	localAt               map[string]time.Time
	local, remote, hop    []time.Duration
	reads                 []time.Duration
	// acked records the state each device was last acknowledged in;
	// unknown holds devices whose latest write failed (outcome unknown).
	acked   map[string]bool
	unknown map[string]bool
	// acks are the times writes were acknowledged, in order.
	acks []time.Time
}

func newRegMix(v *vsr.VSR, tr *Tracer, scope string) *regMix {
	return &regMix{
		v: v, tr: tr, scope: scope,
		sentLocal: map[string]time.Time{}, sentRemote: map[string]time.Time{},
		localAt: map[string]time.Time{}, acked: map[string]bool{}, unknown: map[string]bool{},
	}
}

// op runs ops[i]; it is the Generator's op function. With retry set a
// failed op is retried until its deadline, as a client of a replica set
// rides out an election.
func (m *regMix) op(ctx context.Context, i int) error {
	o := m.ops[i]
	id := deviceID(o.device)
	parent := spanFrom(ctx).h
	var err error
	for {
		err = m.try(ctx, o, id, parent)
		if err == nil || !m.retry || ctx.Err() != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err != nil && o.kind != regFind {
		// The write may or may not have landed: its device's final
		// state is unknown until a later write is acknowledged.
		m.mu.Lock()
		m.unknown[id] = true
		m.mu.Unlock()
	}
	return err
}

// try sends one attempt of op o.
func (m *regMix) try(ctx context.Context, o regOp, id string, parent int) error {
	switch o.kind {
	case regJoin, regRenew:
		now := time.Now()
		m.mu.Lock()
		m.sentLocal[id] = now
		m.sentRemote[id] = now
		m.mu.Unlock()
		h := m.tr.Begin("vsr.register", parent, 0)
		_, err := m.v.Register(ctx, deviceDescription(o.device), deviceEndpoint(o.device))
		m.tr.End(h)
		if err != nil {
			return err
		}
		m.ack(id, true)
	case regLeave:
		h := m.tr.Begin("vsr.unregister", parent, 0)
		err := m.v.Unregister(ctx, "uuid:svc-"+id)
		m.tr.End(h)
		if err != nil {
			return err
		}
		m.ack(id, false)
	default:
		t := time.Now()
		h := m.tr.Begin("vsr.find", parent, 0)
		_, err := m.v.Find(ctx, vsr.Query{ID: id})
		m.tr.End(h)
		if err != nil {
			return err
		}
		m.mu.Lock()
		m.reads = append(m.reads, time.Since(t))
		m.mu.Unlock()
	}
	return nil
}

// ack records an acknowledged write.
func (m *regMix) ack(id string, live bool) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acked[id] = live
	delete(m.unknown, id)
	m.acks = append(m.acks, now)
}

// outage is the longest interval without an acknowledged write that
// spans t: from the last acknowledgement before t to the first after.
// Caller holds mu.
func (m *regMix) outage(t time.Time) time.Duration {
	i := sort.Search(len(m.acks), func(i int) bool { return m.acks[i].After(t) })
	if i == 0 || i == len(m.acks) {
		return 0
	}
	return m.acks[i].Sub(m.acks[i-1])
}

// writes returns the latencies of the phase's acknowledged-write ops
// (joins, renewals, removals) — the registry workloads' primary op.
// Finds are reported as reads; mixing the two would put the median in
// the gap between their clusters.
func (m *regMix) writes(p *Phase) []float64 {
	all := p.Latencies()
	var out []float64
	for i, x := range all {
		if m.ops[i].kind != regFind {
			out = append(out, x)
		}
	}
	return out
}

// preloaded marks devices [0, n) as acknowledged live.
func (m *regMix) preloaded(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		m.acked[deviceID(i)] = true
	}
}

// diff compares a registry's device IDs (already unscoped) with the
// acknowledged state, ignoring devices whose latest write failed: it
// returns how many acknowledged registrations are missing and how many
// acknowledged removals are still present.
func (m *regMix) diff(have map[string]bool) (missing, extra int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, live := range m.acked {
		if m.unknown[id] {
			continue
		}
		if live && !have[id] {
			missing++
		}
		if !live && have[id] {
			extra++
		}
	}
	return missing, extra
}

// deviceSet lists the device IDs a registry holds, scope stripped, one
// find per device class.
func deviceSet(ctx context.Context, v *vsr.VSR) (map[string]bool, error) {
	out := make(map[string]bool)
	for c := 0; c < deviceClasses; c++ {
		found, err := v.Find(ctx, vsr.Query{Middleware: fmt.Sprintf("dev%d", c)})
		if err != nil {
			return nil, err
		}
		for _, r := range found {
			out[trimScope(r.Desc.ID)] = true
		}
	}
	return out, nil
}

// watch consumes deltas from v until ctx ends, timing registrations.
// remote selects which send table the watcher consumes.
func (m *regMix) watch(ctx context.Context, v *vsr.VSR, remote bool) (ready <-chan struct{}, err error) {
	// Start from the registry's current position: only changes made
	// from now on are timed, and replaying a journal of thousands of
	// preloaded entries would exceed the client's 1 MiB response bound.
	_, since, err := v.FindSeq(ctx, vsr.Query{ID: "none:none"})
	if err != nil {
		return nil, err
	}
	ch, err := v.Watch(ctx, since)
	if err != nil {
		return nil, err
	}
	up := make(chan struct{})
	go func() {
		once := false
		for d := range ch {
			if d.Op == vsr.DeltaUp && !once {
				once = true
				close(up)
			}
			if d.Op == vsr.DeltaDown && d.Err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: watch down:", d.Err)
			}
			if d.Op != vsr.DeltaAdd && d.Op != vsr.DeltaUpdate {
				continue
			}
			now := time.Now()
			m.mu.Lock()
			if remote {
				if id, ok := strings.CutPrefix(d.ServiceID, m.scope); ok {
					if t, ok := m.sentRemote[id]; ok {
						delete(m.sentRemote, id)
						m.remote = append(m.remote, now.Sub(t))
						if la, ok := m.localAt[id]; ok {
							m.hop = append(m.hop, now.Sub(la))
							delete(m.localAt, id)
						}
					}
				}
			} else if t, ok := m.sentLocal[d.ServiceID]; ok {
				delete(m.sentLocal, d.ServiceID)
				m.local = append(m.local, now.Sub(t))
				m.localAt[d.ServiceID] = now
			}
			m.mu.Unlock()
		}
	}()
	return up, nil
}

// preloadDevices registers devices [0, n) in batches of 256, untimed:
// the working set a home has before the measured churn starts.
func preloadDevices(ctx context.Context, v *vsr.VSR, n int) error {
	const batch = 256
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		regs := make([]vsr.Registration, 0, hi-lo)
		for i := lo; i < hi; i++ {
			regs = append(regs, vsr.Registration{Desc: deviceDescription(i), Endpoint: deviceEndpoint(i)})
		}
		if _, err := v.RegisterAll(ctx, regs); err != nil {
			return err
		}
	}
	return nil
}

// resetTimings clears the per-phase samples, keeping live-state
// bookkeeping.
func (m *regMix) resetTimings() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.local, m.remote, m.hop, m.reads, m.acks = nil, nil, nil, nil, nil
	m.sentLocal, m.sentRemote, m.localAt = map[string]time.Time{}, map[string]time.Time{}, map[string]time.Time{}
}
