// Failover edge tests for the replica-set coordination layer, driven
// step-by-step on an in-memory network: leader killed mid-batch, stale
// cursors at election time, a deposed leader coming back, double
// promotion, and the rejoin handback that keeps acknowledged writes
// alive across a failover. Every scenario runs the real wire codecs —
// the members talk XML over a transport.MemNet — but no goroutines: the
// tests call AttachOnce/PullOnce/ElectOnce/CheckEpoch themselves, so
// every interleaving is exact.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// eventSink collects audit events for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []audit.Event
}

func (s *eventSink) Record(ev audit.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *eventSink) count(typ audit.Type) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.events {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// member is one replica-set process on the test network.
type member struct {
	host string
	url  string
	reg  *uddi.Server
	srv  *vsr.Server
	node *Node
	sink *eventSink
}

// testSet builds an n-member replica set on a MemNet: real registries,
// real HTTP faces, manual coordination.
func testSet(t *testing.T, n int) (*transport.MemNet, []*member) {
	t.Helper()
	mem := transport.NewMemNet()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://m%d.test/uddi", i)
	}
	members := make([]*member, n)
	for i := range members {
		host := fmt.Sprintf("m%d.test", i)
		reg := uddi.NewManualServer()
		srv := vsr.NewDetachedServer(host, reg, nil)
		mem.Handle(host, srv.Handler())
		sink := &eventSink{}
		node, err := New(Config{
			Self:        urls[i],
			Set:         urls,
			Registry:    reg,
			HTTP:        mem.Client(),
			Recorder:    sink,
			PollTimeout: time.Millisecond,
			RetryDelay:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = &member{host: host, url: urls[i], reg: reg, srv: srv, node: node, sink: sink}
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.reg.Close()
		}
	})
	return mem, members
}

// boot brings the set up in order: member 0 assumes leadership, the
// rest probe, find it, and attach.
func boot(t *testing.T, members []*member) {
	t.Helper()
	ctx := context.Background()
	for _, m := range members {
		if err := m.node.Bootstrap(ctx); err != nil {
			t.Fatalf("%s bootstrap: %v", m.host, err)
		}
	}
	if !members[0].node.IsLeader() {
		t.Fatal("member 0 did not assume leadership on an empty set")
	}
	for _, m := range members[1:] {
		if m.node.IsLeader() {
			t.Fatalf("%s bootstrapped as a second leader", m.host)
		}
	}
}

func save(t *testing.T, mem *transport.MemNet, url, key string) {
	t.Helper()
	c := &uddi.Client{URL: url, HTTP: mem.Client()}
	e := uddi.Entry{Key: key, Name: key, AccessPoint: "http://x/soap", TModel: "IFace"}
	if _, err := c.Save(context.Background(), e, time.Hour); err != nil {
		t.Fatalf("save %s to %s: %v", key, url, err)
	}
}

func pull(t *testing.T, m *member) int {
	t.Helper()
	n, err := m.node.PullOnce(context.Background())
	if err != nil {
		t.Fatalf("%s pull: %v", m.host, err)
	}
	return n
}

// TestFailoverScenarios is the table of leader-death edges. Each case
// arranges a divergence, kills the leader, and asserts every survivor
// independently reaches the same verdict.
func TestFailoverScenarios(t *testing.T) {
	ctx := context.Background()

	// Leader killed mid-batch: one replica saw the whole batch, the
	// other only half. The caught-up replica must win on both ballots.
	t.Run("leader kill mid-batch", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		for i := 0; i < 5; i++ {
			save(t, mem, ms[0].url, fmt.Sprintf("uuid:first-%d", i))
		}
		pull(t, ms[1])
		pull(t, ms[2])
		for i := 0; i < 5; i++ {
			save(t, mem, ms[0].url, fmt.Sprintf("uuid:late-%d", i))
		}
		pull(t, ms[1]) // only m1 sees the tail of the batch
		mem.Handle(ms[0].host, nil)

		p1, err := ms[1].node.ElectOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ms[2].node.ElectOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !p1 || p2 {
			t.Fatalf("election: m1 promoted %v, m2 promoted %v; want m1 only (highest seq)", p1, p2)
		}
		if epoch, leader := ms[1].reg.Epoch(); epoch != 2 || leader != ms[1].url {
			t.Fatalf("m1 epoch = %d leader %q, want epoch 2 self-led", epoch, leader)
		}
		if ms[1].sink.count(audit.ReplicaPromote) != 1 {
			t.Fatal("promotion was not audited")
		}
		// m2 follows the winner; the re-attach (a state transfer from the
		// new leader) re-grounds it on the full batch.
		pull(t, ms[2])
		if ms[2].reg.Len() != 10 {
			t.Fatalf("m2 Len = %d after re-attach, want the full batch of 10", ms[2].reg.Len())
		}
		if ms[1].reg.Seq() != ms[2].reg.Seq() {
			t.Fatalf("survivors diverged: m1 seq %d, m2 seq %d", ms[1].reg.Seq(), ms[2].reg.Seq())
		}
		// The new leader serves writes; the acknowledged batch survived.
		save(t, mem, ms[1].url, "uuid:after-failover")
		if ms[1].reg.Len() != 11 {
			t.Fatalf("new leader Len = %d, want all 10 acknowledged + 1 new", ms[1].reg.Len())
		}
	})

	// Stale cursor at election time: the later set member is the most
	// caught up, so set order must lose to replicated position.
	t.Run("promotion beats set order on seq", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:a")
		pull(t, ms[1])
		pull(t, ms[2])
		save(t, mem, ms[0].url, "uuid:b")
		pull(t, ms[2]) // m2 ahead of m1 despite being later in the set
		mem.Handle(ms[0].host, nil)

		p1, _ := ms[1].node.ElectOnce(ctx)
		p2, err := ms[2].node.ElectOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if p1 || !p2 {
			t.Fatalf("election: m1 %v m2 %v; want the higher-seq m2 to win", p1, p2)
		}
		if ms[1].node.Leader() != ms[2].url {
			t.Fatalf("m1 follows %q, want the winner %s", ms[1].node.Leader(), ms[2].url)
		}
		// m1 re-attaches to the winner and converges.
		if err := ms[1].node.AttachOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if ms[1].reg.Seq() != ms[2].reg.Seq() {
			t.Fatalf("m1 seq %d != winner seq %d", ms[1].reg.Seq(), ms[2].reg.Seq())
		}
	})

	// Old leader comes back: its feed is fenced by the epoch, its write
	// face answers E_notLeader after the epoch sweep deposes it.
	t.Run("stale-epoch rejection on return", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:old-regime")
		pull(t, ms[1])
		pull(t, ms[2])
		mem.Handle(ms[0].host, nil)
		if p, _ := ms[1].node.ElectOnce(ctx); !p {
			t.Fatal("m1 did not take over")
		}
		// m2's own election round finds the incumbent and re-attaches,
		// adopting epoch 2.
		if p, err := ms[2].node.ElectOnce(ctx); err != nil || p {
			t.Fatalf("m2 election: promoted %v err %v, want to follow m1", p, err)
		}
		pull(t, ms[2])

		// The dead leader reappears, still believing it leads epoch 1.
		mem.Handle(ms[0].host, ms[0].srv.Handler())
		// A replica of the new regime must refuse to feed from it.
		ms[2].node.Demote(ms[0].url)
		_, err := ms[2].node.PullOnce(ctx)
		if !errors.Is(err, uddi.ErrStaleEpoch) {
			t.Fatalf("feed from the deposed leader: err = %v, want ErrStaleEpoch", err)
		}
		ms[2].node.Demote(ms[1].url) // back to the real leader

		// The old leader's own sweep notices the newer regime and rejoins.
		if err := ms[0].node.CheckEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		if ms[0].node.IsLeader() {
			t.Fatal("deposed leader kept serving writes after the epoch sweep")
		}
		// Its write face now redirects to the real leader.
		c := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
		_, err = c.Save(ctx, uddi.Entry{Key: "uuid:x", Name: "x", AccessPoint: "a", TModel: "T"}, time.Hour)
		if !errors.Is(err, uddi.ErrNotLeader) {
			t.Fatalf("write to deposed leader: err = %v, want ErrNotLeader", err)
		}
		if hint := uddi.LeaderHint(err); hint != ms[1].url {
			t.Fatalf("leader hint %q, want %s", hint, ms[1].url)
		}
	})

	// Double promotion: two members both believe they lead the same
	// epoch. The fencing sweep resolves deterministically — the earlier
	// set position keeps the crown, the later one rejoins.
	t.Run("double-promotion fencing", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:seed")
		pull(t, ms[1])
		pull(t, ms[2])
		mem.Handle(ms[0].host, nil)
		// Force the split: both survivors promote under epoch 2 without
		// consulting each other.
		if err := ms[1].node.Promote(2); err != nil {
			t.Fatal(err)
		}
		if err := ms[2].node.Promote(2); err != nil {
			t.Fatal(err)
		}
		// Both sweeps run; only the later set member yields.
		if err := ms[1].node.CheckEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		if err := ms[2].node.CheckEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		if !ms[1].node.IsLeader() {
			t.Fatal("earlier set member lost the fencing tie-break")
		}
		if ms[2].node.IsLeader() {
			t.Fatal("both members kept the crown: fencing failed")
		}
		if ms[2].node.Leader() != ms[1].url {
			t.Fatalf("m2 follows %q after fencing, want %s", ms[2].node.Leader(), ms[1].url)
		}
	})

	// Rejoin handback: a write acknowledged by the old leader but never
	// replicated must survive the failover once the old leader returns.
	t.Run("handback of unreplicated acknowledged writes", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:replicated")
		pull(t, ms[1])
		pull(t, ms[2])
		// Acknowledged by m0 alone: the feed dies before anyone pulls it.
		save(t, mem, ms[0].url, "uuid:acked-only-here")
		mem.Handle(ms[0].host, nil)
		if p, _ := ms[1].node.ElectOnce(ctx); !p {
			t.Fatal("m1 did not take over")
		}
		if p, err := ms[2].node.ElectOnce(ctx); err != nil || p {
			t.Fatalf("m2 election: promoted %v err %v, want to follow m1", p, err)
		}
		pull(t, ms[2])
		if _, ok := ms[1].reg.Get("uuid:acked-only-here"); ok {
			t.Fatal("test premise broken: the unreplicated write reached m1")
		}

		// m0 restarts into the newer regime and hands the write back.
		mem.Handle(ms[0].host, ms[0].srv.Handler())
		if err := ms[0].node.Bootstrap(ctx); err != nil {
			t.Fatalf("old leader rejoin: %v", err)
		}
		if ms[0].node.IsLeader() {
			t.Fatal("old leader did not rejoin as a replica")
		}
		if _, ok := ms[1].reg.Get("uuid:acked-only-here"); !ok {
			t.Fatal("acknowledged write lost in failover: handback did not run")
		}
		if st := ms[0].node.Status(); st.HandedBack != 1 {
			t.Fatalf("HandedBack = %d, want 1", st.HandedBack)
		}
		if ms[0].sink.count(audit.ReplicaAttach) == 0 {
			t.Fatal("rejoin attach was not audited")
		}
		// The rejoined replica converges on the full state, including its
		// own handed-back write under the new leader's sequence.
		pull(t, ms[0])
		if _, ok := ms[0].reg.Get("uuid:acked-only-here"); !ok {
			t.Fatal("handed-back write missing on the rejoined replica")
		}
		if ms[0].reg.Seq() != ms[1].reg.Seq() {
			t.Fatalf("rejoined replica seq %d != leader seq %d", ms[0].reg.Seq(), ms[1].reg.Seq())
		}
	})

	// The rejoin hands back only what the old leader journaled above the
	// regime boundary: an entry the new regime removed while the old
	// leader was down was replicated before the boundary, so it must stay
	// removed — only the genuinely unreplicated write returns.
	t.Run("rejoin does not resurrect the new regime's removals", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:removed-by-new-regime")
		save(t, mem, ms[0].url, "uuid:kept")
		pull(t, ms[1])
		pull(t, ms[2])
		save(t, mem, ms[0].url, "uuid:acked-only-here")
		mem.Handle(ms[0].host, nil)
		if p, _ := ms[1].node.ElectOnce(ctx); !p {
			t.Fatal("m1 did not take over")
		}
		if p, err := ms[2].node.ElectOnce(ctx); err != nil || p {
			t.Fatalf("m2 election: promoted %v err %v, want to follow m1", p, err)
		}
		// The new regime acknowledges a removal while m0 is down.
		c := &uddi.Client{URL: ms[1].url, HTTP: mem.Client()}
		if err := c.Delete(ctx, "uuid:removed-by-new-regime"); err != nil {
			t.Fatal(err)
		}
		pull(t, ms[2])

		mem.Handle(ms[0].host, ms[0].srv.Handler())
		if err := ms[0].node.Bootstrap(ctx); err != nil {
			t.Fatalf("old leader rejoin: %v", err)
		}
		if ms[0].node.IsLeader() {
			t.Fatal("old leader did not rejoin as a replica")
		}
		if _, ok := ms[1].reg.Get("uuid:removed-by-new-regime"); ok {
			t.Fatal("rejoin resurrected an entry the new regime removed")
		}
		if _, ok := ms[1].reg.Get("uuid:acked-only-here"); !ok {
			t.Fatal("acknowledged write lost in failover: handback did not run")
		}
		if st := ms[0].node.Status(); st.HandedBack != 1 {
			t.Fatalf("HandedBack = %d, want 1 (the unreplicated write only)", st.HandedBack)
		}
		for _, m := range ms {
			if m.node.IsLeader() {
				continue
			}
			pull(t, m)
			if _, ok := m.reg.Get("uuid:removed-by-new-regime"); ok {
				t.Fatalf("%s holds the removed entry after the rejoin", m.host)
			}
			if _, ok := m.reg.Get("uuid:kept"); !ok {
				t.Fatalf("%s lost an untouched replicated entry", m.host)
			}
		}
	})

	// An unregister acknowledged by the old leader alone must survive the
	// failover too: the survivors still hold the entry, so the rejoining
	// old leader deletes it again — but not a key the new regime wrote
	// after the boundary, whose write is the newer one.
	t.Run("handback of unreplicated acknowledged removals", func(t *testing.T) {
		mem, ms := testSet(t, 3)
		boot(t, ms)
		for _, k := range []string{"uuid:removed-on-old", "uuid:rewritten", "uuid:kept"} {
			save(t, mem, ms[0].url, k)
		}
		pull(t, ms[1])
		pull(t, ms[2])
		// Acknowledged by m0 alone: the feed dies before anyone pulls them.
		c0 := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
		for _, k := range []string{"uuid:removed-on-old", "uuid:rewritten"} {
			if err := c0.Delete(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		mem.Handle(ms[0].host, nil)
		if p, _ := ms[1].node.ElectOnce(ctx); !p {
			t.Fatal("m1 did not take over")
		}
		if p, err := ms[2].node.ElectOnce(ctx); err != nil || p {
			t.Fatalf("m2 election: promoted %v err %v, want to follow m1", p, err)
		}
		// The new regime writes one of the keys the old leader removed.
		save(t, mem, ms[1].url, "uuid:rewritten")
		pull(t, ms[2])
		if _, ok := ms[1].reg.Get("uuid:removed-on-old"); !ok {
			t.Fatal("test premise broken: the unreplicated removal reached m1")
		}

		mem.Handle(ms[0].host, ms[0].srv.Handler())
		if err := ms[0].node.Bootstrap(ctx); err != nil {
			t.Fatalf("old leader rejoin: %v", err)
		}
		if ms[0].node.IsLeader() {
			t.Fatal("old leader did not rejoin as a replica")
		}
		if st := ms[0].node.Status(); st.HandedBack != 1 {
			t.Fatalf("HandedBack = %d, want 1 (the unreplicated removal only)", st.HandedBack)
		}
		for _, m := range ms {
			if !m.node.IsLeader() {
				pull(t, m)
			}
			if _, ok := m.reg.Get("uuid:removed-on-old"); ok {
				t.Fatalf("%s keeps an acknowledged removal after the failover", m.host)
			}
			if _, ok := m.reg.Get("uuid:rewritten"); !ok {
				t.Fatalf("%s lost the new regime's write of a key the old leader removed", m.host)
			}
			if _, ok := m.reg.Get("uuid:kept"); !ok {
				t.Fatalf("%s lost an untouched replicated entry", m.host)
			}
		}
	})

	// When the new leader's journal no longer reaches the boundary, it
	// cannot show whether the new regime rewrote a removed key: the key
	// is kept rather than risk deleting a newer registration.
	t.Run("removal handback keeps the key when the leader journal is short", func(t *testing.T) {
		mem, ms := testSet(t, 2)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:removed-on-old")
		pull(t, ms[1])
		c0 := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
		if err := c0.Delete(ctx, "uuid:removed-on-old"); err != nil {
			t.Fatal(err)
		}
		mem.Handle(ms[0].host, nil)
		if p, _ := ms[1].node.ElectOnce(ctx); !p {
			t.Fatal("m1 did not take over")
		}
		ms[1].reg.SetJournalCapacity(1)
		save(t, mem, ms[1].url, "uuid:new-1")
		save(t, mem, ms[1].url, "uuid:new-2")

		mem.Handle(ms[0].host, ms[0].srv.Handler())
		if err := ms[0].node.Bootstrap(ctx); err != nil {
			t.Fatalf("old leader rejoin: %v", err)
		}
		if _, ok := ms[1].reg.Get("uuid:removed-on-old"); !ok {
			t.Fatal("removal re-sent although the leader's journal could not show the key untouched")
		}
		if st := ms[0].node.Status(); st.HandedBack != 0 {
			t.Fatalf("HandedBack = %d, want 0", st.HandedBack)
		}
	})

	// A replica that merely lagged must NOT hand back: entries the
	// leader deleted while the replica was detached would otherwise rise
	// again.
	t.Run("lagging replica does not resurrect deletions", func(t *testing.T) {
		mem, ms := testSet(t, 2)
		boot(t, ms)
		save(t, mem, ms[0].url, "uuid:doomed")
		pull(t, ms[1])
		// The leader deletes while the replica is detached.
		c := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
		if err := c.Delete(ctx, "uuid:doomed"); err != nil {
			t.Fatal(err)
		}
		// Force a full re-attach (not a journal catch-up).
		if err := ms[1].node.AttachOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok := ms[0].reg.Get("uuid:doomed"); ok {
			t.Fatal("deleted entry resurrected on the leader")
		}
		if _, ok := ms[1].reg.Get("uuid:doomed"); ok {
			t.Fatal("deleted entry survived the re-attach on the replica")
		}
	})
}

// The election loser follows the winner by cursor — no state transfer,
// no journal re-ground — so importer cursors parked on it stay valid.
// An old-regime cursor then survives the whole failover against every
// survivor: the promoted leader and the following loser both replay it
// from their epoch boundary instead of resyncing.
func TestLoserFollowsWithoutReground(t *testing.T) {
	ctx := context.Background()
	mem, ms := testSet(t, 3)
	boot(t, ms)

	// Shared prefix: both replicas at 4. Then two more writes only m1
	// pulls, so m1 wins the election at 6 with m2 lagging at 4.
	for i := 0; i < 4; i++ {
		save(t, mem, ms[0].url, fmt.Sprintf("uuid:shared-%d", i))
	}
	pull(t, ms[1])
	pull(t, ms[2])
	save(t, mem, ms[0].url, "uuid:tail-0")
	save(t, mem, ms[0].url, "uuid:tail-1")
	pull(t, ms[1])

	// An importer that consumed the old leader's full journal: cursor 6
	// under epoch 1.
	c0 := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
	_, cursor, cursorEpoch, resync, err := c0.WatchEpoch(ctx, 0, 0, time.Millisecond)
	if err != nil || resync || cursor != 6 || cursorEpoch != 1 {
		t.Fatalf("importer baseline: cursor %d epoch %d resync %v err %v", cursor, cursorEpoch, resync, err)
	}

	mem.Handle(ms[0].host, nil)
	if p, _ := ms[1].node.ElectOnce(ctx); !p {
		t.Fatal("caught-up m1 did not promote")
	}
	attachesBefore := ms[2].sink.count(audit.ReplicaAttach)
	if p, err := ms[2].node.ElectOnce(ctx); err != nil || p {
		t.Fatalf("m2 election: promoted %v err %v, want to follow m1", p, err)
	}
	// Following is a cursor move, not a re-attach: the lagging m2 keeps
	// its journal and catches up over the ordinary feed.
	if got := ms[2].sink.count(audit.ReplicaAttach); got != attachesBefore {
		t.Fatalf("loser re-attached (%d -> %d audits), want a cursor-only follow", attachesBefore, got)
	}
	if st := ms[2].node.Status(); !st.Attached || st.Role != "replica" || st.Leader != ms[1].url {
		t.Fatalf("loser status after follow: %+v", st)
	}
	pull(t, ms[2])
	if ms[2].reg.Seq() != 6 {
		t.Fatalf("loser seq = %d after catch-up, want 6", ms[2].reg.Seq())
	}

	// The new regime moves on.
	save(t, mem, ms[1].url, "uuid:new-regime")
	pull(t, ms[2])

	// The importer resumes its epoch-1 cursor against each survivor:
	// boundary replay on both, resync on neither, and the new regime's
	// write arrives.
	for _, m := range ms[1:] {
		c := &uddi.Client{URL: m.url, HTTP: mem.Client()}
		changes, next, nextEpoch, resync, err := c.WatchEpoch(ctx, cursor, cursorEpoch, time.Millisecond)
		if err != nil {
			t.Fatalf("resume on %s: %v", m.host, err)
		}
		if resync {
			t.Fatalf("resume on %s resynced, want boundary replay", m.host)
		}
		if next != 7 || nextEpoch != 2 {
			t.Fatalf("resume on %s = next %d epoch %d, want 7 under epoch 2", m.host, next, nextEpoch)
		}
		found := false
		for _, ch := range changes {
			if ch.Entry.Key == "uuid:new-regime" {
				found = true
			}
		}
		if !found {
			t.Fatalf("resume on %s missed the new regime's write (%d changes)", m.host, len(changes))
		}
	}
}

// Importer cursors survive a failover: because replicas apply changes
// under the leader's sequence numbers, a watcher that was at cursor N on
// the old leader resumes at N on the promoted replica with no resync.
func TestWatchCursorSurvivesFailover(t *testing.T) {
	ctx := context.Background()
	mem, ms := testSet(t, 2)
	boot(t, ms)
	for i := 0; i < 4; i++ {
		save(t, mem, ms[0].url, fmt.Sprintf("uuid:w-%d", i))
	}
	pull(t, ms[1])

	// An importer watching the old leader stops at cursor 2.
	c0 := &uddi.Client{URL: ms[0].url, HTTP: mem.Client()}
	changes, next, resync, err := c0.Watch(ctx, 0, time.Millisecond)
	if err != nil || resync || len(changes) != 4 {
		t.Fatalf("watch on old leader: %d changes resync %v err %v", len(changes), resync, err)
	}
	cursor := changes[1].Seq // pretend the importer only processed two

	mem.Handle(ms[0].host, nil)
	if p, _ := ms[1].node.ElectOnce(ctx); !p {
		t.Fatal("replica did not promote")
	}

	// Resume the same cursor against the survivor: the tail replays, no
	// resync, nothing re-imported from scratch.
	c1 := &uddi.Client{URL: ms[1].url, HTTP: mem.Client()}
	changes, next2, resync, err := c1.Watch(ctx, cursor, time.Millisecond)
	if err != nil || resync {
		t.Fatalf("watch resume on survivor: resync %v err %v", resync, err)
	}
	if len(changes) != 2 || next2 != next {
		t.Fatalf("resume replayed %d changes to cursor %d, want 2 to %d", len(changes), next2, next)
	}
}
