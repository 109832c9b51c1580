package neighborhood

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// simEpoch is the fixed virtual time every run starts at. A constant
// epoch keeps entry stamps, journal ages, and lease arithmetic identical
// across runs — wall clock must never leak into a simulation.
var simEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// event is one scheduled callback on the virtual timeline. seq breaks
// same-instant ties in scheduling order, which the single-threaded loop
// makes deterministic.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// home is one virtual residence: a manual registry behind detached VSR
// faces, a peering with manual import links, and a serial-server
// queueing horizon.
type home struct {
	idx  int
	name string

	reg     *uddi.Server
	srv     *vsr.Server
	peering *peer.Peering
	auth    *identity.Auth
	log     *audit.Log

	// links are this home's import links in peer-index order — a slice,
	// not a map, so iteration order can never drift between runs.
	links []*importLink

	// importers are the links that replicate FROM this home, so a fresh
	// export can file its propagation samples without scanning the
	// neighborhood.
	importers []*importLink

	// busyUntil is the serial-server horizon: work arriving at t starts
	// at max(t, busyUntil).
	busyUntil time.Time

	rng    *rand.Rand
	svcSeq int
	// live holds (localKey, serviceID) for services this home currently
	// exports.
	live []liveService

	partitioned bool
	// down marks a crashed home: unlike a partition the process is gone,
	// so no workload runs until the restart rebuilds it from dataDir.
	down bool
	// dataDir is this home's durable registry directory ("" when the
	// scenario runs in memory).
	dataDir string
}

type liveService struct {
	key string
	id  string
}

type importLink struct {
	from *home // exporter
	to   *home // importer
	link *peer.Link
	// pending are propagation samples exported by from that to has not
	// observed yet, in export order.
	pending []sample
	// awaitRecovery, when set, is the virtual instant the exporter came
	// back from a crash; the next successful pull closes the recovery
	// latency sample.
	awaitRecovery time.Time
}

type sample struct {
	scoped string // key of the import in the importer's registry
	src    string // key of the original in the exporter's registry
	// readyAt is when the register completed in the queueing model; a
	// pull observes the sample only once the model says it exists.
	readyAt time.Time
}

// serve runs cost on the home's serial server starting no earlier than
// at, returning the completion time.
func (h *home) serve(at time.Time, cost time.Duration) time.Time {
	if h.busyUntil.Before(at) {
		h.busyUntil = at
	}
	h.busyUntil = h.busyUntil.Add(cost)
	return h.busyUntil
}

// Sim is one seeded run of a scenario.
type Sim struct {
	scn   Scenario
	seed  int64
	clock *vclock.Virtual
	net   *transport.MemNet
	rng   *rand.Rand // scenario-level draws: flaps, partitions
	homes []*home
	// repl is the replica set fronting home 0 when the scenario arms one.
	repl *replicaSet
	// dataRoot holds the per-home durable registry directories for a
	// Durable scenario; removed on Close.
	dataRoot string

	events eventHeap
	seq    uint64
	end    time.Time

	m counters
}

// counters accumulates raw observations during the run.
type counters struct {
	propagationMS []float64
	callMS        []float64
	recoveryMS    []float64

	pulls         int64
	pullErrors    int64
	deltasApplied int64
	registers     int64
	expires       int64
	calls         int64
	callMisses    int64
	signedOps     int64
	dropped       int64

	crashes             int64
	recoveredEntries    int64
	replayedRecords     int64
	missingAfterRestart int64

	readSteadyMS   []float64
	readFailoverMS []float64
	promotions     int64
	handedBack     int64
	writeFailures  int64
	readErrors     int64
	ackedLost      int64
}

// NewSim builds the neighborhood but does not start the clock. Homes
// are constructed from the same prologue HomeSpec.Build applies —
// identity and trust before traffic, audit before the first operation —
// but on detached servers: no listener, no janitor, no link goroutines.
func NewSim(scn Scenario, seed int64) (*Sim, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		scn:   scn,
		seed:  seed,
		clock: vclock.NewVirtual(simEpoch),
		net:   transport.NewMemNet(),
		rng:   rand.New(rand.NewSource(seed)),
	}
	s.end = simEpoch.Add(scn.Duration)

	if scn.Durable {
		root, err := os.MkdirTemp("", "nbsim-durable-*")
		if err != nil {
			return nil, fmt.Errorf("durable data root: %w", err)
		}
		s.dataRoot = root
	}

	// Identities first, so every home can trust its peers before any
	// face comes up.
	ids := make([]*identity.Identity, scn.Homes)
	if scn.Auth {
		for i := range ids {
			id, err := identity.Generate(homeName(i))
			if err != nil {
				return nil, fmt.Errorf("identity for %s: %w", homeName(i), err)
			}
			ids[i] = id
		}
	}

	for i := 0; i < scn.Homes; i++ {
		h, err := s.buildHome(i, ids)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.homes = append(s.homes, h)
	}

	// The replica set fronts home 0 before links form, so importer links
	// to it carry the whole endpoint list.
	if scn.Replicas > 0 {
		if err := s.buildReplicas(); err != nil {
			s.Close()
			return nil, err
		}
	}

	// Peer links in deterministic (importer, exporter) order.
	for _, pair := range s.topologyPairs() {
		imp, exp := s.homes[pair[0]], s.homes[pair[1]]
		l, err := imp.peering.PeerManualSet(s.peerURLs(exp)...)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("peer %s -> %s: %w", imp.name, exp.name, err)
		}
		il := &importLink{from: exp, to: imp, link: l}
		imp.links = append(imp.links, il)
		exp.importers = append(exp.importers, il)
	}
	return s, nil
}

func homeName(i int) string { return fmt.Sprintf("home-%03d", i) }

func (s *Sim) buildHome(idx int, ids []*identity.Identity) (*home, error) {
	name := homeName(idx)
	h := &home{
		idx:       idx,
		name:      name,
		rng:       rand.New(rand.NewSource(s.seed<<16 ^ int64(idx+1))),
		busyUntil: simEpoch,
	}

	var a *identity.Auth
	if s.scn.Auth {
		a = identity.NewAuth(name)
		if err := a.SetIdentity(ids[idx]); err != nil {
			return nil, err
		}
		for j, id := range ids {
			if j == idx {
				continue
			}
			if err := a.Trust(homeName(j), id.PublicKey()); err != nil {
				return nil, err
			}
		}
	}
	h.auth = a

	if s.scn.Durable {
		h.dataDir = filepath.Join(s.dataRoot, name)
	}
	if s.scn.Audit {
		lg, err := audit.New(audit.Options{})
		if err != nil {
			return nil, err
		}
		h.log = lg
	}
	if err := s.bootHome(h); err != nil {
		return nil, err
	}
	return h, nil
}

// bootHome builds (or, after a crash, rebuilds) one home's process
// state: registry — recovered from dataDir when durable — detached VSR
// faces and the peering, and puts it on the network. Import links are
// wired separately: NewSim creates them once, restartHome re-creates
// them on the fresh peering.
func (s *Sim) bootHome(h *home) error {
	if h.dataDir != "" {
		reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
			Dir:           h.dataDir,
			Fsync:         uddi.FsyncOff,
			SnapshotEvery: s.scn.SnapshotEvery,
			Clock:         s.clock.Now,
		})
		if err != nil {
			return fmt.Errorf("durable registry for %s: %w", h.name, err)
		}
		h.reg = reg
	} else {
		h.reg = uddi.NewManualServer()
		h.reg.SetClock(s.clock.Now)
	}
	if h.log != nil {
		h.reg.SetAuditRecorder(audit.WithFace(h.log, "uddi", h.name))
	}

	h.srv = vsr.NewDetachedServer(h.name, h.reg, h.auth)
	p, err := peer.New(h.name, h.reg, h.auth)
	if err != nil {
		return err
	}
	p.SetClock(s.clock)
	p.SetTransport(s.net)
	p.SetImportTTL(s.scn.Duration + time.Hour)
	if h.log != nil {
		p.SetRecorder(audit.WithFace(h.log, "peer", h.name))
	}
	h.peering = p
	h.srv.MountPeer(p.ExportView)
	s.net.Handle(h.name, h.srv.Handler())
	return nil
}

// topologyPairs lists (importer, exporter) index pairs for the
// scenario's topology, in a fixed order.
func (s *Sim) topologyPairs() [][2]int {
	n := s.scn.Homes
	var pairs [][2]int
	switch s.scn.Topology {
	case Mesh:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
	case Ring:
		k := s.scn.Degree
		if k > n-1 {
			k = n - 1
		}
		for i := 0; i < n; i++ {
			for d := 1; d <= k; d++ {
				pairs = append(pairs, [2]int{i, (i + d) % n})
			}
		}
	}
	return pairs
}

func (s *Sim) schedule(at time.Time, fn func()) {
	if at.Before(s.clock.Now()) {
		at = s.clock.Now()
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// after schedules fn an exponential interarrival ahead for the given
// per-second rate, drawn from rng.
func (s *Sim) after(rng *rand.Rand, rate float64, fn func()) {
	if rate <= 0 {
		return
	}
	d := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	s.schedule(s.clock.Now().Add(d), fn)
}

// Run executes the scenario and returns its Result. It may be called
// once per Sim.
func (s *Sim) Run() Result {
	heap.Init(&s.events)

	// Role decisions before any write: home 0 takes epoch 1, the
	// standbys attach to it.
	if s.repl != nil {
		s.bootstrapReplicas()
	}

	// Seed registries before the clock moves, then take one pull round
	// so every home starts with a converged view.
	for _, h := range s.homes {
		for k := 0; k < s.scn.ServicesPerHome; k++ {
			s.exportService(h, simEpoch)
		}
	}
	for _, h := range s.homes {
		for _, il := range h.links {
			s.pullOnce(il, simEpoch)
		}
	}
	if s.repl != nil {
		s.warmupReplicas()
	}
	// The warm-up converged replicas, not metrics: samples observed at
	// the epoch measure setup, not steady state.
	s.m = counters{}

	// Workload generators.
	for _, h := range s.homes {
		h := h
		s.after(h.rng, s.scn.RegisterRate, func() { s.registerEvent(h) })
		s.after(h.rng, s.scn.ExpireRate, func() { s.expireEvent(h) })
		s.after(h.rng, s.scn.CallRate, func() { s.callEvent(h) })
	}
	// Pull cadence: stagger link start within the first interval so the
	// neighborhood does not pulse in lockstep.
	for _, h := range s.homes {
		for _, il := range h.links {
			il := il
			offset := time.Duration(h.rng.Int63n(int64(s.scn.PullInterval)))
			s.schedule(simEpoch.Add(offset), func() { s.pullTick(il) })
		}
	}
	// Replica-set cadences: the members' feed ticks staggered inside the
	// first interval, home 0's own node (a no-op while it leads), and
	// the read stream against the set.
	if s.repl != nil {
		for i, m := range s.repl.members {
			m := m
			offset := s.scn.PullInterval * time.Duration(i+1) / time.Duration(len(s.repl.members)+1)
			s.schedule(simEpoch.Add(offset), func() { s.replicaTick(m) })
		}
		s.schedule(simEpoch.Add(s.scn.PullInterval), s.leadTick)
		if s.scn.ReadRate > 0 {
			s.after(s.repl.rng, s.scn.ReadRate, s.readEvent)
		}
	}
	// Sweeps.
	if s.scn.SweepInterval > 0 {
		s.schedule(simEpoch.Add(s.scn.SweepInterval), s.sweepTick)
	}
	// Flaps.
	if s.scn.FlapInterval > 0 {
		s.schedule(simEpoch.Add(s.scn.FlapInterval), s.flapTick)
	}
	// Partitions.
	for _, w := range s.scn.Partitions {
		w := w
		s.schedule(simEpoch.Add(w.Start), func() { s.partition(w) })
	}
	// Kill-restart.
	if c := s.scn.Crash; c != nil {
		h := s.homes[c.Home]
		s.schedule(simEpoch.Add(c.At), func() { s.crashHome(h) })
		s.schedule(simEpoch.Add(c.At+c.Down), func() { s.restartHome(h) })
	}

	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.at.After(s.end) {
			break
		}
		s.clock.AdvanceTo(ev.at)
		ev.fn()
	}
	s.clock.AdvanceTo(s.end)
	if s.repl != nil {
		s.settleAcked()
	}
	return s.result()
}

// exportService publishes a fresh service on h, paying the register
// cost, and files a propagation sample with every importer of h.
func (s *Sim) exportService(h *home, now time.Time) {
	h.svcSeq++
	id := fmt.Sprintf("sim:%s-dev-%d", h.name, h.svcSeq)
	desc := service.Description{
		ID: id, Name: id, Middleware: "sim",
		Interface: service.Interface{Name: "Dev", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
	entry, err := vsr.EntryFor(desc, "http://"+h.name+"/soap")
	if err != nil {
		panic(fmt.Sprintf("sim: EntryFor(%s): %v", id, err))
	}
	var key string
	var done time.Time
	if s.replicated(h) {
		// The replicated home writes over the wire through the leader-
		// following resolver — the only path that stays correct once the
		// leadership has moved.
		key, err = s.repl.writes.Save(context.Background(), entry, s.scn.ServiceTTL)
		if err != nil {
			s.m.writeFailures++
			return
		}
		done = s.stationFor(s.repl.writes.Resolver.Current()).serve(now, s.opCost(s.scn.Costs.Register))
	} else {
		key = h.reg.Save(entry, s.scn.ServiceTTL)
		done = h.serve(now, s.opCost(s.scn.Costs.Register))
	}
	h.live = append(h.live, liveService{key: key, id: id})
	scoped := "uuid:svc-" + h.name + "/" + id
	for _, il := range h.importers {
		il.pending = append(il.pending, sample{scoped: scoped, src: key, readyAt: done})
	}
	s.m.registers++
}

// opCost decorates a base cost with the security-plane surcharges the
// scenario arms.
func (s *Sim) opCost(base time.Duration) time.Duration {
	c := base
	if s.scn.Auth {
		c += s.scn.Costs.AuthSign
		s.m.signedOps++
	}
	if s.scn.Audit {
		c += s.scn.Costs.AuditAppend
	}
	return c
}

func (s *Sim) registerEvent(h *home) {
	if !h.down {
		s.exportService(h, s.clock.Now())
	}
	s.after(h.rng, s.scn.RegisterRate, func() { s.registerEvent(h) })
}

func (s *Sim) expireEvent(h *home) {
	defer s.after(h.rng, s.scn.ExpireRate, func() { s.expireEvent(h) })
	if h.down || len(h.live) == 0 {
		return
	}
	i := h.rng.Intn(len(h.live))
	svc := h.live[i]
	var st station = h
	if s.replicated(h) {
		if err := s.repl.writes.Delete(context.Background(), svc.key); err != nil {
			// The lease stands: the withdrawal never happened.
			s.m.writeFailures++
			return
		}
		st = s.stationFor(s.repl.writes.Resolver.Current())
	} else {
		h.reg.Delete(svc.key)
	}
	h.live[i] = h.live[len(h.live)-1]
	h.live = h.live[:len(h.live)-1]
	st.serve(s.clock.Now(), s.opCost(s.scn.Costs.Register))
	s.m.expires++
}

// callEvent invokes a random imported service: resolve against the
// local registry replica, then pay the call cost on both sides.
func (s *Sim) callEvent(h *home) {
	defer s.after(h.rng, s.scn.CallRate, func() { s.callEvent(h) })
	if h.down {
		return
	}
	s.m.calls++
	if len(h.links) == 0 {
		s.m.callMisses++
		return
	}
	il := h.links[h.rng.Intn(len(h.links))]
	target := il.from
	if target.down || len(target.live) == 0 {
		s.m.callMisses++
		return
	}
	svc := target.live[target.rng.Intn(len(target.live))]
	if _, ok := h.reg.Get("uuid:svc-" + target.name + "/" + svc.id); !ok {
		// Not replicated yet (or peer partitioned): a real caller gets
		// a lookup miss, not latency.
		s.m.callMisses++
		return
	}
	now := s.clock.Now()
	afterCaller := h.serve(now, s.opCost(s.scn.Costs.Call))
	done := target.serve(afterCaller, s.opCost(s.scn.Costs.Call))
	s.m.callMS = append(s.m.callMS, float64(done.Sub(now))/float64(time.Millisecond))
}

func (s *Sim) pullTick(il *importLink) {
	s.pullOnce(il, s.clock.Now())
	s.schedule(s.clock.Now().Add(s.scn.PullInterval), func() { s.pullTick(il) })
}

// pullOnce drives one anti-entropy pull over the wire and charges both
// sides of it in the queueing model.
func (s *Sim) pullOnce(il *importLink, now time.Time) {
	if il.to.partitioned || il.to.down {
		return // importer is off the network (or dead); its puller is too
	}
	s.m.pulls++
	before := il.link.Status().Applied
	err := il.link.Pull(context.Background())
	applied := int64(il.link.Status().Applied - before)
	s.m.deltasApplied += applied

	if err != nil {
		s.m.pullErrors++
		il.to.serve(now, s.scn.Costs.PullImporter)
		return
	}
	// A pull from the replicated home may have been served by whichever
	// member currently leads; charge the exporter side there.
	var exp station = il.from
	if s.replicated(il.from) {
		if ls := s.leaderStation(); ls != nil {
			exp = ls
		}
	}
	exp.serve(now, s.opCost(s.scn.Costs.PullExporter))
	cost := s.opCost(s.scn.Costs.PullImporter) + time.Duration(applied)*s.scn.Costs.PerDelta
	done := il.to.serve(now, cost)

	// First successful pull after the exporter's restart: the importer is
	// caught up again — close the crash-recovery latency sample.
	if !il.awaitRecovery.IsZero() {
		s.m.recoveryMS = append(s.m.recoveryMS,
			float64(done.Sub(il.awaitRecovery))/float64(time.Millisecond))
		il.awaitRecovery = time.Time{}
	}

	// Settle propagation samples this pull made visible.
	kept := il.pending[:0]
	for _, sm := range il.pending {
		if sm.readyAt.After(now) {
			kept = append(kept, sm)
			continue
		}
		if _, ok := il.to.reg.Get(sm.scoped); ok {
			s.m.propagationMS = append(s.m.propagationMS,
				float64(done.Sub(sm.readyAt))/float64(time.Millisecond))
		} else if _, live := s.sourceRegistry(il.from).Get(sm.src); !live {
			// Withdrawn at the source before it ever replicated.
			s.m.dropped++
		} else {
			kept = append(kept, sm)
		}
	}
	il.pending = kept
}

// sourceRegistry is where an exporter's truth lives: its own registry,
// or — for the replicated home — the acting leader's, which stays
// queryable while the home itself is dead.
func (s *Sim) sourceRegistry(h *home) *uddi.Server {
	if s.replicated(h) {
		return s.leaderRegistry()
	}
	return h.reg
}

func (s *Sim) sweepTick() {
	for _, h := range s.homes {
		if h.down {
			continue // no janitor runs in a dead process
		}
		h.reg.Sweep()
	}
	if s.repl != nil {
		// A member's sweep is a no-op while it follows (expiry replicates
		// from the leader); it matters the moment one promotes.
		for _, m := range s.repl.members {
			m.reg.Sweep()
		}
	}
	s.schedule(s.clock.Now().Add(s.scn.SweepInterval), s.sweepTick)
}

// flapTick takes one random home off the network for half a pull
// interval — the short link-flap churn of consumer uplinks.
func (s *Sim) flapTick() {
	h := s.homes[s.rng.Intn(len(s.homes))]
	s.setPartitioned(h, true)
	s.schedule(s.clock.Now().Add(s.scn.PullInterval/2), func() { s.setPartitioned(h, false) })
	s.schedule(s.clock.Now().Add(s.scn.FlapInterval), s.flapTick)
}

func (s *Sim) partition(w PartitionWindow) {
	n := int(float64(len(s.homes))*w.Fraction + 0.5)
	perm := s.rng.Perm(len(s.homes))
	for _, i := range perm[:n] {
		h := s.homes[i]
		if !h.partitioned {
			s.setPartitioned(h, true)
			s.schedule(s.clock.Now().Add(w.Duration), func() { s.setPartitioned(h, false) })
		}
	}
}

// crashHome is the kill -9: the home vanishes from the network and its
// registry's WAL fd closes with no sync, no marker, no shutdown event.
// The in-memory state — journal ring, link cursors, queue horizon — is
// gone with the process; only the data directory survives.
func (s *Sim) crashHome(h *home) {
	h.down = true
	s.net.Handle(h.name, nil)
	h.peering.Close()
	h.reg.CrashClose()
	h.srv.Close()
	s.m.crashes++
}

// restartHome rebuilds the home from its data directory: the registry
// recovers snapshot + WAL tail, fresh faces and peering come up, and
// the home's own import links restart from scratch (their cursors were
// process state). Its importers' links are untouched — whether they
// resume from their cursors without a resync is exactly what the run
// measures.
func (s *Sim) restartHome(h *home) {
	now := s.clock.Now()
	if err := s.bootHome(h); err != nil {
		panic(fmt.Sprintf("sim: restart %s: %v", h.name, err))
	}
	rec := h.reg.Recovery()
	s.m.recoveredEntries += int64(rec.Entries)
	s.m.replayedRecords += int64(rec.Replayed)

	// A replicated home does not resume leadership: it rejoins the set
	// as a replica of whoever promoted, handing back acknowledged writes
	// only its recovered WAL knew about.
	if s.replicated(h) {
		s.rejoinLeader(h)
	}

	// Every registration the home had acknowledged must still resolve.
	kept := h.live[:0]
	for _, svc := range h.live {
		if _, ok := h.reg.Get(svc.key); ok {
			kept = append(kept, svc)
		} else {
			s.m.missingAfterRestart++
		}
	}
	h.live = kept

	// The home's own import links are rebuilt on the new peering; first
	// contact reconciles against state the recovery already restored.
	for _, il := range h.links {
		l, err := h.peering.PeerManualSet(s.peerURLs(il.from)...)
		if err != nil {
			panic(fmt.Sprintf("sim: re-peer %s -> %s: %v", h.name, il.from.name, err))
		}
		il.link = l
	}
	// Importers' next successful pull closes the recovery-latency sample.
	for _, il := range h.importers {
		il.awaitRecovery = now
	}
	h.down = false
	// The model pays the replay on the home's serial server before it
	// takes new work: one per-delta cost per replayed WAL record.
	h.busyUntil = now
	h.serve(now, time.Duration(rec.Replayed)*s.scn.Costs.PerDelta)
}

func (s *Sim) setPartitioned(h *home, down bool) {
	h.partitioned = down
	if down {
		s.net.Handle(h.name, nil)
	} else {
		s.net.Handle(h.name, h.srv.Handler())
	}
}

// Close releases every home (peerings stop their links; detached
// servers hold no listeners) and removes the durable data root.
func (s *Sim) Close() {
	s.closeReplicas()
	for _, h := range s.homes {
		if h.peering != nil {
			h.peering.Close()
		}
		if h.srv != nil {
			h.srv.Close()
		}
		if h.reg != nil {
			h.reg.Close()
		}
	}
	if s.dataRoot != "" {
		os.RemoveAll(s.dataRoot)
	}
}
