// Package replica is the coordination layer over the registry's
// replication protocol (internal/uddi/replica.go): it decides what role
// this process plays and drives the machinery that keeps the role true.
//
// A Node is one member of an ordered replica set. As a replica it
// attaches to the leader with a paged state transfer (state_page), then
// mirrors the leader's journal change-for-change (repl_watch), applying
// each record under the leader's sequence number into its own registry —
// and its own WAL, so a replica restart recovers locally instead of
// re-transferring. As a leader it serves writes and watches for rival
// regimes. When the feed dies, the node runs a deterministic election:
// every member probes every member, the highest replicated sequence
// number wins, ties break toward the earliest position in the set order,
// and the winner promotes itself under a fresh epoch — so all survivors
// reach the same verdict independently, with no election protocol on the
// wire beyond the status probe.
//
// The policy here (promotion rule, rejoin handback) is deliberately thin
// and separable from the mechanism in internal/uddi, after the
// policy-free-middleware argument: deployments with different failover
// tastes can replace this package without touching the registry.
package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// ErrNoLeader reports a replica that has no live leader to feed from —
// the trigger for an election.
var ErrNoLeader = errors.New("replica: no leader")

// DefaultPollTimeout is the repl_watch long-poll parking time.
const DefaultPollTimeout = 5 * time.Second

// DefaultRetryDelay paces the Run loop's recovery attempts after a feed
// error or a lost election.
const DefaultRetryDelay = 500 * time.Millisecond

// Config describes one member of a replica set.
type Config struct {
	// Self is this node's own registry URL — its identity in the set and
	// the leader name it promotes under. Required.
	Self string
	// Set is the ordered replica-set endpoint list (the deterministic
	// tie-break order for elections). Self is added if absent.
	Set []string
	// Registry is the local registry this node keeps in sync. Required.
	Registry *uddi.Server
	// ReplicaOf, when set, forces the node to boot as a replica of that
	// endpoint instead of probing the set for a leader.
	ReplicaOf string
	// Dialer, when set, carries inter-node traffic over the session-keyed
	// binary fast path.
	Dialer *transport.Dialer
	// HTTP overrides the HTTP client for inter-node traffic.
	HTTP *http.Client
	// Recorder, when set, receives replica.attach / replica.promote
	// audit events (replaceable later via SetRecorder).
	Recorder audit.Recorder
	// Clock stamps feed activity; nil means the system clock. The
	// deterministic simulation injects its virtual clock here.
	Clock vclock.Clock
	// PollTimeout is the repl_watch long-poll (default DefaultPollTimeout).
	PollTimeout time.Duration
	// RetryDelay paces Run's recovery attempts (default DefaultRetryDelay).
	RetryDelay time.Duration
}

// Status is the node's replication face, served under /health.
type Status struct {
	Role   string `json:"role"` // "leader" or "replica"
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader,omitempty"`
	// Seq is the local registry's journal position.
	Seq uint64 `json:"seq"`
	// LeaderSeq is the leader's position as of the last feed round.
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// Lag is LeaderSeq - Seq: how many leader changes this replica has
	// not applied yet. Always 0 on a leader.
	Lag uint64 `json:"lag"`
	// Attached is true once the state transfer completed and the feed is
	// live.
	Attached bool `json:"attached"`
	// HandedBack counts acknowledged writes this node re-sent to a new
	// leader on rejoin — registrations and removals only its own WAL
	// knew about.
	HandedBack int    `json:"handed_back,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	LastFeed   string `json:"last_feed,omitempty"`
	// Proto is the wire a replica's transfer and feed ride: "binary" once
	// the leader negotiated the fast path, "soap" otherwise. Empty on a
	// leader, without a Dialer, or before first contact.
	Proto string `json:"proto,omitempty"`
}

// Node is one replica-set member's coordination state machine. All
// methods are safe for concurrent use; the feed itself (AttachOnce /
// PullOnce) is driven by one goroutine — Run, or a test's manual calls.
type Node struct {
	cfg     Config
	clients map[string]*uddi.Client

	mu        sync.Mutex
	recorder  audit.Recorder
	leader    string // endpoint the feed follows; "" when unknown
	cursor    uint64 // last applied leader sequence number
	leaderSeq uint64 // leader position at the last feed round
	attached  bool
	handed    int
	lastErr   string
	lastFeed  time.Time
}

// New validates the config and returns a Node. The node does nothing
// until Bootstrap (role decision) and Run (or manual driving) start it.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("replica: config requires Self")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("replica: config requires Registry")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.System
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = DefaultPollTimeout
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = DefaultRetryDelay
	}
	found := false
	for _, ep := range cfg.Set {
		if ep == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		cfg.Set = append(append([]string(nil), cfg.Set...), cfg.Self)
	}
	n := &Node{cfg: cfg, recorder: cfg.Recorder, clients: make(map[string]*uddi.Client, len(cfg.Set))}
	for _, ep := range cfg.Set {
		n.clients[ep] = &uddi.Client{URL: ep, Dialer: cfg.Dialer, HTTP: cfg.HTTP}
	}
	return n, nil
}

func (n *Node) client(ep string) *uddi.Client {
	if c, ok := n.clients[ep]; ok {
		return c
	}
	c := &uddi.Client{URL: ep, Dialer: n.cfg.Dialer, HTTP: n.cfg.HTTP}
	n.clients[ep] = c
	return c
}

// SetRecorder installs (or replaces) the audit recorder; vsrd wires it
// after the audit log opens.
func (n *Node) SetRecorder(r audit.Recorder) {
	n.mu.Lock()
	n.recorder = r
	n.mu.Unlock()
}

func (n *Node) record(ev audit.Event) {
	n.mu.Lock()
	r := n.recorder
	n.mu.Unlock()
	if r != nil {
		r.Record(ev)
	}
}

func (n *Node) setIndex(ep string) int {
	for i, e := range n.cfg.Set {
		if e == ep {
			return i
		}
	}
	return len(n.cfg.Set)
}

// Leader returns the endpoint the feed currently follows ("" unknown).
// On a leader node it is Self.
func (n *Node) Leader() string {
	if n.cfg.Registry.ReplicaOf() == "" {
		return n.cfg.Self
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// IsLeader reports whether the local registry currently serves writes.
func (n *Node) IsLeader() bool { return n.cfg.Registry.ReplicaOf() == "" }

// Status snapshots the node for /health.
func (n *Node) Status() Status {
	epoch, _ := n.cfg.Registry.Epoch()
	seq := n.cfg.Registry.Seq()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Epoch:      epoch,
		Seq:        seq,
		Attached:   n.attached,
		HandedBack: n.handed,
		LastError:  n.lastErr,
	}
	if !n.lastFeed.IsZero() {
		st.LastFeed = n.lastFeed.UTC().Format(time.RFC3339Nano)
	}
	if of := n.cfg.Registry.ReplicaOf(); of != "" {
		st.Role, st.Leader = "replica", of
		st.LeaderSeq = n.leaderSeq
		if n.leaderSeq > seq {
			st.Lag = n.leaderSeq - seq
		}
	} else {
		st.Role, st.Leader = "leader", n.cfg.Self
		st.Attached = true
	}
	if st.Role == "replica" && n.cfg.Dialer != nil {
		st.Proto = n.cfg.Dialer.ProtocolFor(st.Leader)
	}
	return st
}

// Bootstrap decides the node's initial role. With ReplicaOf configured it
// joins that leader. Otherwise it probes the set: a live leader running a
// regime at least as new as the local WAL remembers is joined (the
// restarted-old-leader path, with handback of unreplicated acknowledged
// writes); with no such leader the node assumes leadership itself.
func (n *Node) Bootstrap(ctx context.Context) error {
	if n.cfg.ReplicaOf != "" {
		return n.JoinAs(ctx, n.cfg.ReplicaOf)
	}
	ownEpoch, _ := n.cfg.Registry.Epoch()
	for _, ep := range n.cfg.Set {
		if ep == n.cfg.Self {
			continue
		}
		st, err := n.client(ep).ReplStatus(ctx)
		if err != nil {
			continue
		}
		// Epoch 0 is a registry that never assumed a regime (every real
		// leader runs epoch ≥ 1): not a leader to follow, just a fresh
		// member that has not bootstrapped yet.
		if st.Role == "leader" && st.Epoch > 0 && st.Epoch >= ownEpoch {
			return n.JoinAs(ctx, ep)
		}
	}
	return n.assumeLeadership()
}

// assumeLeadership makes this node the leader of its current epoch — or,
// when the WAL remembers a different node leading it, of the next one, so
// a regime never has two names.
func (n *Node) assumeLeadership() error {
	reg := n.cfg.Registry
	epoch, epochLeader := reg.Epoch()
	if epoch == 0 || epochLeader != n.cfg.Self {
		epoch++
	}
	return n.promote(epoch, "bootstrap")
}

// Promote makes this node the leader under the given epoch: the epoch is
// fenced into the WAL, replica mode ends, and the promotion is audited.
func (n *Node) Promote(epoch uint64) error {
	return n.promote(epoch, "elected")
}

func (n *Node) promote(epoch uint64, why string) error {
	reg := n.cfg.Registry
	if err := reg.SetEpoch(epoch, n.cfg.Self); err != nil {
		return err
	}
	reg.SetReplicaOf("")
	n.mu.Lock()
	n.leader = n.cfg.Self
	n.attached = false
	n.lastErr = ""
	n.mu.Unlock()
	n.record(audit.Event{Type: audit.ReplicaPromote, Home: n.cfg.Self,
		Detail: fmt.Sprintf("%s: leading epoch %d from seq %d", why, epoch, reg.Seq())})
	return nil
}

// Demote flips the node into a replica of the given leader; the next
// AttachOnce re-grounds it.
func (n *Node) Demote(leader string) {
	n.cfg.Registry.SetReplicaOf(leader)
	n.mu.Lock()
	n.leader = leader
	n.attached = false
	n.mu.Unlock()
}

// Follow re-points the feed at a leader that replicated the same history
// this node did — the election loser's path, where the winner's position
// is at least ours by the promotion rule. Unlike Demote it keeps the node
// attached with its own journal position as the cursor, skipping the
// state transfer: a re-ground would discard the local journal ring, and
// with it every importer and watcher cursor parked on this node. If the
// optimism is wrong — the new leader's history diverged below our
// position after all — its feed answers resync and PullOnce falls back
// to a full attach.
func (n *Node) Follow(leader string) {
	n.cfg.Registry.SetReplicaOf(leader)
	seq := n.cfg.Registry.Seq()
	n.mu.Lock()
	n.leader = leader
	n.cursor = seq
	n.attached = true
	n.mu.Unlock()
}

// JoinAs demotes to a replica of leader and runs the attach.
func (n *Node) JoinAs(ctx context.Context, leader string) error {
	n.Demote(leader)
	return n.AttachOnce(ctx)
}

// AttachOnce performs one state transfer from the current leader: walk
// the leader's state in pages, hand back any acknowledged writes only
// this node's WAL knows about (the restarted-old-leader case), and
// re-ground the local registry — entries, journal position, epoch, and a
// reset WAL — on the transfer. On success the feed cursor is the first
// page's position: every page was read at or after it, so replaying the
// journal from there over the pages converges on the leader's state.
func (n *Node) AttachOnce(ctx context.Context) error {
	n.mu.Lock()
	leader := n.leader
	n.mu.Unlock()
	if leader == "" || leader == n.cfg.Self {
		return ErrNoLeader
	}
	first, st, err := n.transfer(ctx, leader)
	if err != nil {
		n.fail(err)
		return err
	}
	handed, herr := n.handback(ctx, leader, &first, st)
	if herr != nil {
		n.fail(herr)
		return herr
	}
	epochLeader := first.Leader
	if epochLeader == "" {
		epochLeader = leader
	}
	if err := st.Install(first.Seq, first.Epoch, epochLeader); err != nil {
		n.fail(err)
		return err
	}
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	n.cursor = first.Seq
	n.leaderSeq = first.Seq
	n.attached = true
	n.handed += handed
	n.lastErr = ""
	n.lastFeed = now
	n.mu.Unlock()
	detail := fmt.Sprintf("attached to %s at seq %d, epoch %d (%d entries)",
		leader, first.Seq, first.Epoch, st.Len())
	if handed > 0 {
		detail += fmt.Sprintf("; handed back %d unreplicated acknowledged writes", handed)
	}
	n.record(audit.Event{Type: audit.ReplicaAttach, Home: n.cfg.Self, Detail: detail})
	return nil
}

// maxAttachRestarts bounds how often one attach restarts its page walk
// because the leader's regime changed under it; past that the attach
// fails and the Run loop's retry (or election) takes over.
const maxAttachRestarts = 3

// transfer walks the leader's state page by page into a staging area of
// the local registry and returns the first page (its position, regime
// and boundary; no entries) with the staged transfer. A page read under
// a different epoch or leader than the first belongs to another regime's
// history, so the walk restarts from the first page.
func (n *Node) transfer(ctx context.Context, leader string) (uddi.Page, *uddi.Staging, error) {
	cl := n.client(leader)
	ownEpoch, _ := n.cfg.Registry.Epoch()
	for restarts := 0; restarts <= maxAttachRestarts; restarts++ {
		st := n.cfg.Registry.Stage()
		var first uddi.Page
		for after := ""; ; {
			p, err := cl.Page(ctx, after, ownEpoch)
			if err != nil {
				return uddi.Page{}, nil, err
			}
			if after == "" {
				first = uddi.Page{Seq: p.Seq, Epoch: p.Epoch, Leader: p.Leader, Boundary: p.Boundary}
			} else if p.Epoch != first.Epoch || p.Leader != first.Leader {
				break
			}
			if err := st.Add(&p); err != nil {
				return uddi.Page{}, nil, fmt.Errorf("replica: state transfer from %s: %w", leader, err)
			}
			if p.Next == "" {
				return first, st, nil
			}
			after = p.Next
		}
	}
	return uddi.Page{}, nil, fmt.Errorf("replica: state transfer from %s: regime changed %d times mid-transfer",
		leader, maxAttachRestarts+1)
}

// handback re-sends acknowledged writes that exist only in this node's
// WAL to the new leader, before the attach discards them. It runs only
// on a deposed leader rejoining a newer regime — a replica that merely
// fell behind must NOT resurrect entries its leader deleted. The
// candidates are the local changes journaled above the regime boundary
// the leader's first page names (first.Boundary): everything at or below
// it was replicated into the new regime, so such an entry missing from
// the transfer is one the new regime removed, and stays removed.
//
//   - Each written candidate that survives locally and is absent from the
//     transfer is saved back under its own key with its remaining
//     lifetime, so lease semantics are preserved.
//   - Each key whose last local change above the boundary is a delete,
//     and which the transfer still holds, is deleted again — unless the
//     new leader's journal shows the new regime wrote the key after the
//     boundary, which makes that write the newer one. When the leader's
//     journal cannot show that (it no longer reaches the boundary), the
//     key is kept: losing an acknowledged registration is the worse
//     failure.
//
// When the local journal no longer reaches back to the boundary, every
// local entry absent from the transfer is a save candidate and no delete
// is re-sent. Only the candidates are copied out of the registry.
func (n *Node) handback(ctx context.Context, leader string, first *uddi.Page, st *uddi.Staging) (int, error) {
	reg := n.cfg.Registry
	epoch, epochLeader := reg.Epoch()
	if epochLeader != n.cfg.Self || epoch >= first.Epoch {
		return 0, nil
	}
	var unreplicated map[string]bool // nil: the journal does not reach the boundary
	var deletes []string
	if changes, ok := journalAbove(reg, first.Boundary); ok {
		unreplicated = make(map[string]bool, len(changes))
		last := make(map[string]uddi.ChangeOp, len(changes))
		for _, c := range changes {
			last[c.Entry.Key] = c.Op
			if c.Op == uddi.OpAdd || c.Op == uddi.OpUpdate {
				unreplicated[c.Entry.Key] = true
			}
		}
		for key, op := range last {
			if op == uddi.OpDelete && st.Has(key) {
				deletes = append(deletes, key)
			}
		}
	}
	now := n.cfg.Clock.Now()
	type lease struct {
		key       string
		remaining time.Duration
	}
	var cands []lease
	reg.Leases(func(key string, expires time.Time) {
		if st.Has(key) || (unreplicated != nil && !unreplicated[key]) {
			return
		}
		if remaining := expires.Sub(now); remaining > 0 {
			cands = append(cands, lease{key, remaining})
		}
	})
	// Key order, so the new leader journals a handback identically on
	// every run.
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })
	cl := n.client(leader)
	handed := 0
	for _, c := range cands {
		e, ok := reg.Get(c.key)
		if !ok {
			continue
		}
		if _, err := cl.Save(ctx, e, c.remaining); err != nil {
			return handed, fmt.Errorf("replica: handback of %s: %w", c.key, err)
		}
		handed++
	}
	if len(deletes) == 0 {
		return handed, nil
	}
	rewritten, ok := leaderWrites(ctx, cl, first.Boundary)
	if !ok {
		return handed, nil
	}
	sort.Strings(deletes)
	for _, key := range deletes {
		if rewritten[key] {
			continue
		}
		if err := cl.Delete(ctx, key); err != nil {
			return handed, fmt.Errorf("replica: handback of delete %s: %w", key, err)
		}
		handed++
	}
	return handed, nil
}

// journalAbove returns every change reg journaled above since, reading
// the journal batch by batch. ok is false when the journal no longer
// reaches back to since.
func journalAbove(reg *uddi.Server, since uint64) (changes []uddi.Change, ok bool) {
	for {
		cs, next, resync := reg.Changes(since)
		if resync {
			return nil, false
		}
		if len(cs) == 0 {
			return changes, true
		}
		changes = append(changes, cs...)
		since = next
	}
}

// maxLeaderWriteRounds bounds how many journal batches leaderWrites reads
// from a leader that keeps accepting writes while it is read.
const maxLeaderWriteRounds = 64

// leaderWrites returns the keys the leader behind cl journaled above
// since, any op. ok is false when its journal cannot show them all: it
// no longer reaches back to since, the read failed, or it did not catch
// up within maxLeaderWriteRounds batches.
func leaderWrites(ctx context.Context, cl *uddi.Client, since uint64) (map[string]bool, bool) {
	keys := make(map[string]bool)
	for round := 0; round < maxLeaderWriteRounds; round++ {
		changes, next, resync, err := cl.Watch(ctx, since, 0)
		if err != nil || resync {
			return nil, false
		}
		if len(changes) == 0 {
			return keys, true
		}
		for _, c := range changes {
			keys[c.Entry.Key] = true
		}
		since = next
	}
	return nil, false
}

// PullOnce runs one feed round against the leader: a repl_watch from the
// cursor, carrying this node's epoch so a deposed leader fences itself.
// Changes apply as one batch under the leader's sequence numbers; a
// resync answer (the leader's journal outran us) falls back to a fresh
// state transfer.
// Returns how many changes were applied.
func (n *Node) PullOnce(ctx context.Context) (int, error) {
	if n.IsLeader() {
		return 0, nil
	}
	n.mu.Lock()
	leader, cursor, attached := n.leader, n.cursor, n.attached
	n.mu.Unlock()
	if leader == "" || leader == n.cfg.Self {
		return 0, ErrNoLeader
	}
	if !attached {
		if err := n.AttachOnce(ctx); err != nil {
			return 0, err
		}
		n.mu.Lock()
		cursor = n.cursor
		n.mu.Unlock()
	}
	epoch, _ := n.cfg.Registry.Epoch()
	rc, err := n.client(leader).ReplWatch(ctx, cursor, epoch, n.cfg.PollTimeout)
	if err != nil {
		n.fail(err)
		return 0, err
	}
	if rc.Epoch < epoch {
		// The feed answered from an older regime than this node has
		// acknowledged: a deposed leader that has not noticed yet.
		err := fmt.Errorf("replica: feed %s at epoch %d, node at %d: %w",
			leader, rc.Epoch, epoch, uddi.ErrStaleEpoch)
		n.fail(err)
		return 0, err
	}
	if rc.Epoch > epoch {
		// The regime advanced (a promotion happened upstream); adopt it.
		epochLeader := rc.Leader
		if epochLeader == "" {
			epochLeader = leader
		}
		if err := n.cfg.Registry.SetEpoch(rc.Epoch, epochLeader); err != nil {
			n.fail(err)
			return 0, err
		}
	}
	if rc.Resync {
		n.mu.Lock()
		n.attached = false
		n.mu.Unlock()
		if err := n.AttachOnce(ctx); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if err := n.cfg.Registry.ApplyReplicated(rc.Changes...); err != nil {
		n.fail(err)
		return 0, err
	}
	applied := len(rc.Changes)
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	n.cursor = rc.Next
	n.leaderSeq = rc.Next
	n.lastErr = ""
	n.lastFeed = now
	n.mu.Unlock()
	return applied, nil
}

// ElectOnce runs one deterministic election round after the feed died:
// probe every set member, and follow — or become — the winner. A live
// leader of a current-or-newer regime short-circuits the election (we
// just re-point at it). Otherwise the live member with the highest
// replicated sequence number wins, ties breaking toward the earliest
// set position; every survivor computes the same winner independently.
// Returns true when this node promoted itself.
func (n *Node) ElectOnce(ctx context.Context) (bool, error) {
	type cand struct {
		ep string
		st uddi.ReplStatus
	}
	ownEpoch, _ := n.cfg.Registry.Epoch()
	maxEpoch := ownEpoch
	var cands []cand
	for _, ep := range n.cfg.Set {
		var st uddi.ReplStatus
		if ep == n.cfg.Self {
			st = uddi.ReplStatus{Seq: n.cfg.Registry.Seq(), Epoch: ownEpoch}
		} else {
			var err error
			st, err = n.client(ep).ReplStatus(ctx)
			if err != nil {
				continue
			}
		}
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
		cands = append(cands, cand{ep, st})
	}
	// A live leader of the newest regime seen wins by incumbency (epoch
	// 0 is a never-bootstrapped member, not an incumbent). Follow rather
	// than re-attach: the incumbent promoted out of the same feed this
	// node was on, so the local journal ring — and the importer cursors
	// parked on it — stays intact.
	for _, c := range cands {
		if c.ep != n.cfg.Self && c.st.Role == "leader" && c.st.Epoch > 0 && c.st.Epoch >= maxEpoch {
			n.Follow(c.ep)
			return false, nil
		}
	}
	win := cands[0]
	for _, c := range cands[1:] {
		if c.st.Seq > win.st.Seq {
			win = c
		}
	}
	if win.ep == n.cfg.Self {
		return true, n.Promote(maxEpoch + 1)
	}
	n.Follow(win.ep)
	return false, nil
}

// CheckEpoch is the leader's fencing sweep: probe the set for a rival
// leader. A rival with a newer epoch — or the same epoch but an earlier
// set position (the deterministic loser of a double promotion) — deposes
// this node, which rejoins the rival as a replica. No-op on replicas.
func (n *Node) CheckEpoch(ctx context.Context) error {
	if !n.IsLeader() {
		return nil
	}
	ownEpoch, _ := n.cfg.Registry.Epoch()
	for _, ep := range n.cfg.Set {
		if ep == n.cfg.Self {
			continue
		}
		st, err := n.client(ep).ReplStatus(ctx)
		if err != nil || st.Role != "leader" {
			continue
		}
		if st.Epoch > ownEpoch ||
			(st.Epoch == ownEpoch && n.setIndex(ep) < n.setIndex(n.cfg.Self)) {
			n.record(audit.Event{Type: audit.ReplicaAttach, Home: n.cfg.Self,
				Detail: fmt.Sprintf("deposed: %s leads epoch %d (own epoch %d); rejoining as replica", ep, st.Epoch, ownEpoch)})
			return n.JoinAs(ctx, ep)
		}
	}
	return nil
}

func (n *Node) fail(err error) {
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
}

// Run drives the node until ctx ends: replicas attach and pull, electing
// when the feed dies; leaders periodically sweep for rival regimes. This
// is the background loop vsrd runs; tests and the simulation call the
// individual steps instead.
func (n *Node) Run(ctx context.Context) {
	sweepEvery := 4 * n.cfg.RetryDelay
	for ctx.Err() == nil {
		if n.IsLeader() {
			if err := n.sleep(ctx, sweepEvery); err != nil {
				return
			}
			_ = n.CheckEpoch(ctx)
			continue
		}
		if _, err := n.PullOnce(ctx); err != nil && ctx.Err() == nil {
			if promoted, _ := n.ElectOnce(ctx); promoted {
				continue
			}
			if err := n.sleep(ctx, n.cfg.RetryDelay); err != nil {
				return
			}
		}
	}
}

func (n *Node) sleep(ctx context.Context, d time.Duration) error {
	t := n.cfg.Clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C():
		return nil
	}
}
