// Replica-set machinery for the simulation: when Scenario.Replicas is
// set, home 0's registry gains N standby members — each a real durable
// registry on its own memnet host, kept in sync by the repl watch
// protocol through a coordination node the event loop drives manually.
// Writes to home 0 route through a leader-following resolver client, a
// read stream probes the set through a second resolver, and a
// CrashWindow on home 0 becomes a leader kill: the replicas elect a
// successor deterministically, the importers' links fail over through
// their own endpoint lists, and the restarted old leader rejoins as a
// replica, handing back any acknowledged write only its WAL knew.
package neighborhood

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/replica"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// station is any holder of a serial-server horizon the queueing model
// can charge work to — a home or a replica-set member.
type station interface {
	serve(at time.Time, cost time.Duration) time.Time
}

// replicaMember is one standby member of home 0's replica set. Its
// export face answers under home 0's name so importer links that fail
// over to it keep filing imports under the same scoped keys, and its
// registry preserves the leader's sequence numbers so their cursors
// keep working.
type replicaMember struct {
	name    string
	reg     *uddi.Server
	srv     *vsr.Server
	peering *peer.Peering
	node    *replica.Node
	dataDir string

	busyUntil time.Time
}

func (m *replicaMember) serve(at time.Time, cost time.Duration) time.Time {
	if m.busyUntil.Before(at) {
		m.busyUntil = at
	}
	m.busyUntil = m.busyUntil.Add(cost)
	return m.busyUntil
}

// replicaSet is the sim-side state of the replicated home: the ordered
// endpoint list (home 0 first — the election tie-break order), the
// standby members, home 0's own coordination node (rebuilt when the
// home restarts), and the two resolver clients the workload rides.
type replicaSet struct {
	set      []string // /uddi endpoints, home 0 first
	members  []*replicaMember
	lead     *replica.Node
	stations map[string]station

	writes *uddi.Client
	reads  *uddi.Client
	// rng draws the read stream; separate from the per-home workload
	// rngs so arming reads cannot shift any other schedule.
	rng *rand.Rand
}

func (s *Sim) replicated(h *home) bool { return s.repl != nil && h.idx == 0 }

// nodeConfig is the shared shape of every coordination node in the set:
// virtual clock, memnet transport, and a millisecond poll so an empty
// feed round cannot stall the single-threaded event loop.
func (s *Sim) nodeConfig(self string, reg *uddi.Server, replicaOf string) replica.Config {
	return replica.Config{
		Self:        self,
		Set:         s.repl.set,
		Registry:    reg,
		ReplicaOf:   replicaOf,
		HTTP:        s.net.Client(),
		Clock:       s.clock,
		PollTimeout: time.Millisecond,
		RetryDelay:  time.Millisecond,
	}
}

// buildReplicas constructs the standby members and the set's clients.
// Runs after home 0 exists and before peer links form, so importer
// links can include the members in their endpoint lists.
func (s *Sim) buildReplicas() error {
	h0 := s.homes[0]
	set := []string{"http://" + h0.name + "/uddi"}
	for i := 1; i <= s.scn.Replicas; i++ {
		set = append(set, fmt.Sprintf("http://%s-r%d/uddi", h0.name, i))
	}
	rs := &replicaSet{
		set:      set,
		stations: map[string]station{set[0]: h0},
		rng:      rand.New(rand.NewSource(s.seed<<16 ^ 0x7ead)),
	}
	s.repl = rs

	for i := 1; i <= s.scn.Replicas; i++ {
		name := fmt.Sprintf("%s-r%d", h0.name, i)
		m := &replicaMember{name: name, dataDir: filepath.Join(s.dataRoot, name), busyUntil: simEpoch}
		reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
			Dir:           m.dataDir,
			Fsync:         uddi.FsyncOff,
			SnapshotEvery: s.scn.SnapshotEvery,
			Clock:         s.clock.Now,
		})
		if err != nil {
			return fmt.Errorf("replica registry %s: %w", name, err)
		}
		m.reg = reg
		// The member serves home 0's registry, so its faces answer under
		// home 0's name: importers that fail over here must see the same
		// exporter they were peered with.
		m.srv = vsr.NewDetachedServer(h0.name, reg, nil)
		p, err := peer.New(h0.name, reg, nil)
		if err != nil {
			return fmt.Errorf("replica peering %s: %w", name, err)
		}
		p.SetClock(s.clock)
		p.SetTransport(s.net)
		p.SetImportTTL(s.scn.Duration + time.Hour)
		m.peering = p
		m.srv.MountPeer(p.ExportView)
		node, err := replica.New(s.nodeConfig(set[i], reg, set[0]))
		if err != nil {
			return fmt.Errorf("replica node %s: %w", name, err)
		}
		m.node = node
		s.net.Handle(name, m.srv.Handler())
		rs.stations[set[i]] = m
		rs.members = append(rs.members, m)
	}

	lead, err := replica.New(s.nodeConfig(set[0], h0.reg, ""))
	if err != nil {
		return fmt.Errorf("leader node %s: %w", h0.name, err)
	}
	rs.lead = lead
	rs.writes = &uddi.Client{HTTP: s.net.Client(), Resolver: transport.NewResolver(set...)}
	rs.reads = &uddi.Client{HTTP: s.net.Client(), Resolver: transport.NewResolver(set...)}
	return nil
}

// peerURLs is the endpoint list an importer link to exp should carry:
// just the home, or — for the replicated home — the home followed by
// its standbys, so the link's own resolver can fail over.
func (s *Sim) peerURLs(exp *home) []string {
	urls := []string{"http://" + exp.name + "/peer"}
	if s.replicated(exp) {
		for _, m := range s.repl.members {
			urls = append(urls, "http://"+m.name+"/peer")
		}
	}
	return urls
}

// bootstrapReplicas runs the role decision before the clock starts:
// home 0 assumes leadership of epoch 1, the members join it and take
// their initial state transfer.
func (s *Sim) bootstrapReplicas() {
	ctx := context.Background()
	if err := s.repl.lead.Bootstrap(ctx); err != nil {
		panic(fmt.Sprintf("sim: leader bootstrap: %v", err))
	}
	for _, m := range s.repl.members {
		if err := m.node.Bootstrap(ctx); err != nil {
			panic(fmt.Sprintf("sim: replica bootstrap %s: %v", m.name, err))
		}
	}
}

// warmupReplicas converges the members onto the seeded registry so the
// measured run starts from a synchronized set, mirroring the warm-up
// pull round the peer links take.
func (s *Sim) warmupReplicas() {
	for _, m := range s.repl.members {
		if _, err := m.node.PullOnce(context.Background()); err != nil {
			panic(fmt.Sprintf("sim: replica warm-up %s: %v", m.name, err))
		}
	}
}

func (s *Sim) stationFor(endpoint string) station {
	if st, ok := s.repl.stations[endpoint]; ok {
		return st
	}
	return s.homes[0]
}

func (s *Sim) stationUp(endpoint string) bool {
	if endpoint == s.repl.set[0] {
		return !s.homes[0].down
	}
	return true // standby members never die in this scenario
}

// leaderStation is the member currently acting as leader, nil during
// the gap between a kill and the election that fills it.
func (s *Sim) leaderStation() station {
	h0 := s.homes[0]
	if !h0.down && s.repl.lead != nil && s.repl.lead.IsLeader() {
		return h0
	}
	for _, m := range s.repl.members {
		if m.node.IsLeader() {
			return m
		}
	}
	return nil
}

// leaderRegistry is the registry acknowledged writes live in right now.
func (s *Sim) leaderRegistry() *uddi.Server {
	switch t := s.leaderStation().(type) {
	case *home:
		return t.reg
	case *replicaMember:
		return t.reg
	}
	return s.homes[0].reg
}

// replicaTick is a member's feed cadence, staggered like pull ticks.
func (s *Sim) replicaTick(m *replicaMember) {
	s.replicaFeed(m.node, m, s.clock.Now())
	s.schedule(s.clock.Now().Add(s.scn.PullInterval), func() { s.replicaTick(m) })
}

// leadTick drives home 0's own node: a no-op while it leads, a feed
// round once it has rejoined as a replica, skipped while it is dead.
func (s *Sim) leadTick() {
	h0 := s.homes[0]
	if !h0.down && s.repl.lead != nil {
		s.replicaFeed(s.repl.lead, h0, s.clock.Now())
	}
	s.schedule(s.clock.Now().Add(s.scn.PullInterval), s.leadTick)
}

// replicaFeed runs one feed round for a follower and charges both sides
// of it. A broken feed — the leader is dead — costs the probe and
// triggers one election round; the highest-sequence member promotes and
// everyone else re-points at it on their next tick.
func (s *Sim) replicaFeed(n *replica.Node, st station, now time.Time) {
	if n.IsLeader() {
		return
	}
	applied, err := n.PullOnce(context.Background())
	if err != nil {
		st.serve(now, s.scn.Costs.Redial)
		if won, eerr := n.ElectOnce(context.Background()); eerr == nil && won {
			s.m.promotions++
		}
		return
	}
	if ls := s.leaderStation(); ls != nil && ls != st {
		ls.serve(now, s.scn.Costs.PullExporter)
	}
	st.serve(now, s.scn.Costs.PullImporter+time.Duration(applied)*s.scn.Costs.PerDelta)
}

// inFailoverWindow classifies a sample against the crash schedule: the
// span between the kill and the old leader's restart is the failover
// window the read-availability criterion bounds.
func (s *Sim) inFailoverWindow(now time.Time) bool {
	c := s.scn.Crash
	if c == nil {
		return false
	}
	return !now.Before(simEpoch.Add(c.At)) && now.Before(simEpoch.Add(c.At+c.Down))
}

// readEvent issues one lookup against the replica set through the read
// resolver. The wire call supplies correctness (and moves the resolver
// off dead endpoints exactly as a real client would); the queueing
// model supplies the latency: one redial per dead endpoint the resolver
// must step over, then the read served on the answering member.
func (s *Sim) readEvent() {
	defer s.after(s.repl.rng, s.scn.ReadRate, s.readEvent)
	h0 := s.homes[0]
	if len(h0.live) == 0 {
		return
	}
	svc := h0.live[s.repl.rng.Intn(len(h0.live))]
	now := s.clock.Now()

	// Mirror the resolver's rotation to find the answering member and
	// the dead endpoints scanned on the way — deterministically, before
	// the real call advances the cursor.
	res := s.repl.reads.Resolver
	eps := res.Endpoints()
	start := 0
	for i, ep := range eps {
		if ep == res.Current() {
			start = i
			break
		}
	}
	var penalty time.Duration
	var st station
	for k := 0; k < len(eps); k++ {
		ep := eps[(start+k)%len(eps)]
		if s.stationUp(ep) {
			st = s.stationFor(ep)
			break
		}
		penalty += s.scn.Costs.Redial
	}

	if _, _, err := s.repl.reads.Get(context.Background(), svc.key); err != nil || st == nil {
		s.m.readErrors++
		return
	}
	done := st.serve(now.Add(penalty), s.opCost(s.scn.Costs.Read))
	ms := float64(done.Sub(now)) / float64(time.Millisecond)
	if s.inFailoverWindow(now) {
		s.m.readFailoverMS = append(s.m.readFailoverMS, ms)
	} else {
		s.m.readSteadyMS = append(s.m.readSteadyMS, ms)
	}
}

// rejoinLeader runs after the crashed home 0 recovered its WAL: a fresh
// coordination node probes the set, finds the promoted member at a
// higher epoch, and rejoins as a replica — handing back acknowledged
// writes that never replicated, then re-grounding from the new leader's
// state. One feed round after the attach pulls the handed-back writes
// home, so the missing-after-restart check sees the converged registry.
func (s *Sim) rejoinLeader(h *home) {
	node, err := replica.New(s.nodeConfig(s.repl.set[0], h.reg, ""))
	if err != nil {
		panic(fmt.Sprintf("sim: rejoin node %s: %v", h.name, err))
	}
	s.repl.lead = node
	if err := node.Bootstrap(context.Background()); err != nil {
		panic(fmt.Sprintf("sim: rejoin %s: %v", h.name, err))
	}
	if !node.IsLeader() {
		// Benign when there is nothing new: the attach already converged.
		_, _ = node.PullOnce(context.Background())
	}
	s.m.handedBack += int64(node.Status().HandedBack)
}

// settleAcked audits the zero-loss contract at the end of the run:
// every registration the replicated home acknowledged and never
// withdrew must resolve in the acting leader's registry.
func (s *Sim) settleAcked() {
	reg := s.leaderRegistry()
	for _, svc := range s.homes[0].live {
		if _, ok := reg.Get(svc.key); !ok {
			s.m.ackedLost++
		}
	}
}

func (s *Sim) closeReplicas() {
	if s.repl == nil {
		return
	}
	for _, m := range s.repl.members {
		if m.peering != nil {
			m.peering.Close()
		}
		if m.srv != nil {
			m.srv.Close()
		}
		if m.reg != nil {
			m.reg.Close()
		}
	}
}
