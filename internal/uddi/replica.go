// replica.go is the registry's replication face: the protocol a replica
// uses to mirror a leader registry change-for-change, and the mode switch
// that makes this process one of the mirrors.
//
// Replication rides the machinery PR 2 built for watchers: every mutation
// already has a global sequence number and a journal record, so a replica
// is "just" a watcher that (a) receives lease deadlines along with
// entries, (b) applies changes under the leader's sequence numbers
// instead of assigning its own, and (c) persists through its own WAL. The
// payoff of keeping the leader's numbering is failover transparency:
// when a replica is promoted, every importer and watcher cursor pointed
// at the old leader is still valid against the new one — clients re-pin
// to a surviving endpoint and resume from `since` with zero resyncs.
//
// Promotions are fenced by an epoch: a monotone counter recorded in the
// WAL (opWALEpoch frames) and in snapshots, bumped exactly once per
// leadership change. A node refuses to regress its epoch, and the
// replication operations carry the requester's epoch so a deposed leader
// that comes back is told E_staleEpoch instead of being allowed to serve
// a dead regime. Election itself is deterministic — highest replicated
// sequence number wins, ties broken by replica-set order — and lives in
// internal/core/replica; this file provides the mechanism (epoch
// storage, fenced apply, state transfer), after the policy-free-middleware
// argument that infrastructure should expose journals and cursors and let
// the deployment choose failover policy.
package uddi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// ErrNotLeader is the typed refusal a replica answers writes with. It is
// what makes failover error-driven: a resolver-backed client that sees it
// re-pins to the leader the replica named (or the next endpoint) instead
// of reporting failure.
var ErrNotLeader = errors.New("uddi: not the leader")

// ErrStaleEpoch reports a replication operation from (or against) a
// deposed leadership regime: the other side's epoch is behind ours, or
// ours is behind theirs. The loser must stop serving its regime and
// re-attach as a replica.
var ErrStaleEpoch = errors.New("uddi: stale epoch")

// notLeaderError carries the leader address a replica named in its
// refusal; unwraps to ErrNotLeader.
type notLeaderError struct {
	msg    string
	leader string
}

func (e *notLeaderError) Error() string { return e.msg }
func (e *notLeaderError) Unwrap() error { return ErrNotLeader }

// LeaderHint extracts the leader address from an ErrNotLeader refusal,
// or "" when the error carries none.
func LeaderHint(err error) string {
	var nl *notLeaderError
	if errors.As(err, &nl) {
		return nl.leader
	}
	return ""
}

// notLeaderInfo is the E_notLeader errInfo text; leaderHintIn parses the
// address back out on the client side.
func notLeaderInfo(leader string) string {
	return "replica: writes go to the leader at " + leader
}

func leaderHintIn(info string) string {
	if i := strings.LastIndex(info, " at "); i >= 0 {
		return strings.TrimSpace(info[i+len(" at "):])
	}
	return ""
}

// endpointDownError marks a transport-level failure (connect refused,
// reset, dial timeout) as distinct from a protocol-level refusal, so the
// failover loop knows the endpoint itself is gone.
type endpointDownError struct{ err error }

func (e *endpointDownError) Error() string { return e.err.Error() }
func (e *endpointDownError) Unwrap() error { return e.err }

// FailoverWorthy reports whether err should move a resolver-backed client
// to the next endpoint: the endpoint is down, or it answered as a replica
// (ErrNotLeader). Everything else — auth refusals, malformed documents,
// context cancellation — is the same answer on every endpoint and must
// surface, not retry.
func FailoverWorthy(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrNotLeader) {
		return true
	}
	var down *endpointDownError
	return errors.As(err, &down)
}

// replicaState is the registry's replica-mode flag: non-nil on the
// Server.replica atomic means wire writes are refused with E_notLeader
// naming this leader. One pointer load on the write path keeps the
// leader's gated benchmarks untouched.
type replicaState struct {
	leader string
}

// SetReplicaOf flips the registry into replica mode (leader names the
// endpoint writes should be redirected to) or, with "", back into leader
// mode. Mode changes are the coordination layer's job
// (internal/core/replica); the registry only enforces the current mode.
func (s *Server) SetReplicaOf(leader string) {
	if leader == "" {
		s.replica.Store(nil)
		return
	}
	s.replica.Store(&replicaState{leader: leader})
}

// ReplicaOf returns the leader endpoint this registry mirrors, or "" when
// it is itself a leader.
func (s *Server) ReplicaOf() string {
	if rs := s.replica.Load(); rs != nil {
		return rs.leader
	}
	return ""
}

// Epoch returns the current replication epoch and the leader name it was
// stamped with.
func (s *Server) Epoch() (uint64, string) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.epoch, s.epochLeader
}

// epochMark remembers where one regime ended: seq is the journal position
// this node was at when it adopted epoch. Cursors from any older epoch
// that point beyond seq crossed into history the regimes do not share.
type epochMark struct {
	epoch uint64
	seq   uint64
}

// maxEpochMarks bounds the boundary memory; older boundaries force a
// resync, which is the pre-epoch behavior.
const maxEpochMarks = 16

// epochBoundaryLocked returns the journal position shared between
// sinceEpoch and every later regime this node adopted in place — the seq
// of the earliest mark newer than sinceEpoch. ok is false when that bump
// predates this node's memory. Caller holds jmu.
func (s *Server) epochBoundaryLocked(sinceEpoch uint64) (seq uint64, ok bool) {
	for _, m := range s.epochMarks {
		if m.epoch > sinceEpoch {
			return m.seq, true
		}
	}
	return 0, false
}

// SetEpoch advances the replication epoch, persisting an epoch frame to
// the WAL so a restart remembers which regime it last acknowledged. An
// attempt to regress the epoch fails with ErrStaleEpoch — the fencing
// rule that stops a deposed leader's state from overwriting a newer
// regime. Re-asserting the current epoch (same number) is allowed so a
// node can adopt the regime's leader name it learned late.
func (s *Server) SetEpoch(epoch uint64, leader string) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("uddi: epoch %d behind current %d (leader %s): %w",
			epoch, s.epoch, s.epochLeader, ErrStaleEpoch)
	}
	if epoch == s.epoch && leader == s.epochLeader {
		return nil
	}
	if epoch > s.epoch {
		s.appendEpochMarkLocked(epoch)
	}
	s.epoch, s.epochLeader = epoch, leader
	s.walAppendEpochLocked(epoch, leader)
	return nil
}

// appendEpochMarkLocked records the current journal position as the end
// of the outgoing regime. The position is this node's own — for a lagging
// replica adopting a promotion that is below the true boundary, which is
// safe: a conservative boundary only replays more shared history, never
// skips divergent records. Caller holds jmu.
func (s *Server) appendEpochMarkLocked(epoch uint64) {
	s.epochMarks = append(s.epochMarks, epochMark{epoch: epoch, seq: s.seq})
	if len(s.epochMarks) > maxEpochMarks {
		s.epochMarks = s.epochMarks[len(s.epochMarks)-maxEpochMarks:]
	}
}

// walAppendEpochLocked frames an opWALEpoch record at the current journal
// position. Epoch changes are rare and are fencing state, so they are
// synced immediately under every policy except FsyncOff. Caller holds jmu.
func (s *Server) walAppendEpochLocked(epoch uint64, leader string) {
	w := s.wal
	if w == nil || w.f == nil {
		return
	}
	b := append(w.scratch[:0], 0, 0, 0, 0, 0, 0, 0, 0, recVersion, opWALEpoch)
	b = binary.AppendUvarint(b, s.seq)
	b = binary.AppendUvarint(b, epoch)
	b = appendWALString(b, leader)
	sealFrame(b)
	if !w.write(b) {
		return
	}
	w.appends++
	if w.policy != FsyncOff {
		w.sync()
	}
}

// ApplyReplicated applies changes from the leader's feed as one batch
// (one WAL write, one fsync under FsyncAlways, one watcher wake),
// preserving the leader's sequence numbers — the invariant that keeps
// every watcher and importer cursor valid across failover. Duplicate
// redelivery (a sequence number at or below the local position, or
// below a change before it) is skipped; a gap in the numbering clears
// the in-memory journal ring, since Changes() relies on the ring being
// contiguous, and watchers behind the gap resync. A batch holding an
// invalid change applies nothing. The registry takes ownership of the
// changes' entries (a decoded feed round is not used again): they are
// installed as they are, and must not be modified afterwards.
func (s *Server) ApplyReplicated(cs ...Change) error {
	for _, c := range cs {
		if c.Seq == 0 {
			return fmt.Errorf("uddi: replicated change without sequence number")
		}
		if c.Entry.Key == "" {
			return fmt.Errorf("uddi: replicated change %d without service key", c.Seq)
		}
		switch c.Op {
		case OpAdd, OpUpdate, OpDelete, OpExpire:
		default:
			return fmt.Errorf("uddi: unknown replicated op %q", c.Op)
		}
	}
	// The feed is applied by a single goroutine per replica, so reading
	// the position outside the shard locks is race-free here.
	last := s.Seq()
	fresh := cs[:0] // filtered in place: the changes are the registry's now
	var mask uint16
	for _, c := range cs {
		if c.Seq > last {
			last = c.Seq
			fresh = append(fresh, c)
			mask |= 1 << shardIndex(c.Entry.Key)
		}
	}
	s.lockShards(mask)
	for _, c := range fresh {
		idx := shardIndex(c.Entry.Key)
		if c.Op == OpAdd || c.Op == OpUpdate {
			s.shards[idx].put(&record{entry: c.Entry, expires: c.Expires})
		} else {
			s.shards[idx].remove(c.Entry.Key)
		}
		s.shardOps[idx].Add(1)
	}
	s.appendBatch(fresh)
	s.unlockShards(mask)
	return nil
}

// walResetLocked discards the entire on-disk history and restarts it at
// seq: every segment and snapshot is removed, a fresh snapshot of recs
// (the records just installed; sorted here) is written at seq, and a new
// segment opens at seq+1. Called under jmu (and, from Staging.Install,
// all shard locks).
func (s *Server) walResetLocked(recs []*record, seq, epoch uint64, leader string) error {
	w := s.wal
	if w == nil {
		return nil
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, sg := range w.segs {
		os.Remove(sg.path)
	}
	w.segs = w.segs[:0]
	for _, sp := range w.snaps {
		os.Remove(sp.path)
	}
	w.snaps = w.snaps[:0]

	sortByKey(recs)
	path := filepath.Join(w.dir, fmt.Sprintf("snap-%016x.snap", seq))
	if err := writeSnapshot(path, seq, recs, epoch, leader); err != nil {
		w.lastErr = "reset: " + err.Error()
		return err
	}
	w.snaps = append(w.snaps, walFile{seq: seq, path: path})
	w.snapSeq, w.haveSnap = seq, true
	w.sinceSnap = 0
	w.snapshots++
	if err := w.newSegment(seq + 1); err != nil {
		w.lastErr = "reset: " + err.Error()
		return err
	}
	return nil
}

// --- wire types ----------------------------------------------------------

// ReplStatus is a node's replication face: where it is in the journal and
// which regime it belongs to.
type ReplStatus struct {
	Seq    uint64
	Epoch  uint64
	Leader string // the epoch's leader name (endpoint URL)
	Role   string // "leader" or "replica"
	// ReplicaOf is the leader endpoint a replica currently follows;
	// empty on a leader.
	ReplicaOf string
}

// ReplChanges is one replication feed round: ordinary watch output plus
// lease deadlines and the feed's epoch for fencing.
type ReplChanges struct {
	Changes []Change
	Next    uint64
	Resync  bool
	Epoch   uint64
	Leader  string
}

func (s *Server) replStatusNow() ReplStatus {
	s.jmu.Lock()
	st := ReplStatus{Seq: s.seq, Epoch: s.epoch, Leader: s.epochLeader, Role: "leader"}
	s.jmu.Unlock()
	if of := s.ReplicaOf(); of != "" {
		st.Role, st.ReplicaOf = "replica", of
	}
	return st
}

// replWatchFence rejects a feed request from a node that has seen a newer
// epoch than this server: this server is the deposed leader, and must not
// feed anyone its dead regime.
func (s *Server) replWatchFence(reqEpoch uint64) (string, bool) {
	epoch, leader := s.Epoch()
	if reqEpoch > epoch {
		return fmt.Sprintf("feed is epoch %d (leader %s), requester has seen %d",
			epoch, leader, reqEpoch), false
	}
	return "", true
}

// --- client side ---------------------------------------------------------

// ReplStatus asks an endpoint where it stands: journal position, epoch,
// role. The election probe.
func (c *Client) ReplStatus(ctx context.Context) (ReplStatus, error) {
	rep, err := c.call(ctx, &request{op: opReplStatus, name: "repl_status"})
	return rep.status, err
}

// ReplWatch long-polls the leader's feed from since, announcing the
// highest epoch this replica has seen so a deposed leader fences itself.
func (c *Client) ReplWatch(ctx context.Context, since, epoch uint64, timeout time.Duration) (ReplChanges, error) {
	rep, err := c.call(ctx, &request{op: opReplWatch, name: "repl_watch", since: since, epoch: epoch, timeout: timeout})
	if err != nil {
		return ReplChanges{}, err
	}
	return ReplChanges{Changes: rep.changes, Next: rep.next, Resync: rep.resync, Epoch: rep.epoch, Leader: rep.leader}, nil
}
