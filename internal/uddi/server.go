package uddi

import (
	"context"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"homeconnect/internal/core/audit"
)

// maxRequestBytes bounds inbound publication/inquiry documents.
const maxRequestBytes = 1 << 20

// numShards splits the index by service-key hash so registration and
// inquiry from many gateways stop contending on one mutex. Power of two.
const numShards = 16

// defaultJournalCapacity bounds the change journal; watchers further
// behind than this are told to resync (drop caches, resume from the
// current sequence) rather than silently miss changes.
const defaultJournalCapacity = 1024

// sweepInterval is how often the expiry janitor scans for lapsed
// registrations. Expired entries are invisible to reads immediately; the
// janitor exists to delete them and journal the expiry for watchers.
const sweepInterval = 100 * time.Millisecond

// maxWatchTimeout caps how long one watch request may park server-side.
const maxWatchTimeout = 30 * time.Second

// Server is an in-memory UDDI-style registry with a change journal. The
// zero value is not usable; call NewServer.
type Server struct {
	// nowFn is swappable for expiry tests; atomic so the janitor and
	// SetClock don't race.
	nowFn atomic.Value // func() time.Time

	shards [numShards]shard

	// The journal: a ring of the most recent changes, covering sequence
	// numbers (seq-len(journal), seq]. Mutators append while holding
	// their shard lock (shard → journal lock order, never the reverse),
	// so journal order always matches per-key map order. A journaled add
	// or update shares its entry with the installed record, which is
	// never mutated.
	jmu     sync.Mutex
	journal changeRing
	jcap    int
	seq     uint64
	wake    chan struct{} // closed and replaced on every append

	// epoch and epochLeader are the replication epoch: which leader
	// regime the journal's recent history belongs to (see replica.go).
	// Guarded by jmu; persisted as WAL epoch frames and in snapshots.
	epoch       uint64
	epochLeader string
	// epochMarks remembers, per epoch bump this node witnessed in place,
	// the journal position the previous regime ended at. Watchers holding
	// cursors from an older epoch are replayed from that boundary instead
	// of being forced into a full resync (see ChangesEpoch). Cleared on a
	// state-transfer re-ground, whose journal discontinuity makes old
	// cursors unservable anyway. Guarded by jmu.
	epochMarks []epochMark

	// replica, when non-nil, puts the registry in replica mode: the wire
	// faces refuse publication (E_notLeader, naming the leader), and the
	// expiry sweep stops journaling — lapsed entries go invisible to reads
	// immediately but their expire records arrive from the leader's feed,
	// keeping sequence numbers identical across the replica set.
	replica atomic.Pointer[replicaState]

	// saves and finds count operations for the benchmark harness.
	saves atomic.Int64
	finds atomic.Int64

	// shardOps counts mutations per shard — the simulation harness reads
	// the distribution to test shard-load uniformity under churn.
	shardOps [numShards]atomic.Int64

	// auditRec, when set, receives registry lifecycle events: TTL
	// expiries and endpoint re-homes.
	auditRec atomic.Pointer[audit.Recorder]

	// wal, when non-nil, persists the journal to disk (see wal.go). Its
	// fields are guarded by jmu. recoveredPending defers the boot-time
	// registry.recovered audit event until a recorder is installed.
	wal              *wal
	recoveredMsg     string
	recoveredPending atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
}

// shard is one slice of the index. Every write to entries goes through
// put, remove or reset, which keep postings in step under mu.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*record
	// postings maps each category pair carried by some entry to the
	// records carrying it — what lets Find probe a handful of candidates
	// instead of reading every entry.
	postings map[catPair]posting
}

// catPair is one category (key, value). A struct, not a joined string,
// so no byte in a key or value can make two pairs collide.
type catPair struct{ key, value string }

// posting is the set of records carrying one category pair. Most pairs
// belong to one record (a device's own service ID), so the first record
// is held inline under its service key, and a map keyed by service key
// holds the set once a second record arrives. Exactly one of rec and
// more is set.
type posting struct {
	key  string
	rec  *record
	more map[string]*record
}

func (p posting) len() int {
	if p.more != nil {
		return len(p.more)
	}
	if p.rec != nil {
		return 1
	}
	return 0
}

// all yields every record in the posting.
func (p posting) all(yield func(*record) bool) {
	if p.rec != nil {
		yield(p.rec)
		return
	}
	for _, rec := range p.more {
		if !yield(rec) {
			return
		}
	}
}

type record struct {
	entry   Entry
	expires time.Time
}

// put installs rec under its entry's key, replacing any previous record.
// Caller holds sh.mu for writing.
func (sh *shard) put(rec *record) {
	key := rec.entry.Key
	if old, ok := sh.entries[key]; ok {
		// Only the pairs the new bag drops leave their postings: a renewal
		// keeps its categories, and just repoints them below.
		for k, v := range old.entry.Categories {
			if nv, ok := rec.entry.Categories[k]; !ok || nv != v {
				sh.unpost(catPair{k, v}, key)
			}
		}
	}
	sh.entries[key] = rec
	for k, v := range rec.entry.Categories {
		pair := catPair{k, v}
		p := sh.postings[pair]
		switch {
		case p.more != nil:
			p.more[key] = rec
		case p.rec == nil || p.key == key:
			p.key, p.rec = key, rec
		default:
			p.more = map[string]*record{p.key: p.rec, key: rec}
			p.key, p.rec = "", nil
		}
		sh.postings[pair] = p
	}
}

// remove deletes key's record, reporting it if there was one. Caller
// holds sh.mu for writing.
func (sh *shard) remove(key string) (*record, bool) {
	rec, ok := sh.entries[key]
	if ok {
		for k, v := range rec.entry.Categories {
			sh.unpost(catPair{k, v}, key)
		}
		delete(sh.entries, key)
	}
	return rec, ok
}

// unpost drops key from the pair's posting, and the posting once it is
// empty.
func (sh *shard) unpost(pair catPair, key string) {
	p := sh.postings[pair]
	if p.more != nil {
		delete(p.more, key)
	} else if p.key == key {
		p.rec = nil
	}
	if p.len() == 0 {
		delete(sh.postings, pair)
	}
}

// reset empties the shard. Caller holds sh.mu for writing (or owns the
// server exclusively, as at construction).
func (sh *shard) reset() {
	sh.entries = make(map[string]*record)
	sh.postings = make(map[catPair]posting)
}

// candidates returns the records that can satisfy q: the smallest posting
// among q's categories, or every entry when q names none. A category with
// an empty value also matches entries lacking the key (see Query.Matches),
// so it narrows nothing. Caller holds sh.mu for reading and still decides
// each candidate with Matches.
func (sh *shard) candidates(q Query) posting {
	cands := posting{more: sh.entries}
	for k, v := range q.Categories {
		if v == "" {
			continue
		}
		if p := sh.postings[catPair{k, v}]; p.len() < cands.len() {
			cands = p
		}
	}
	return cands
}

// NewServer returns an empty registry and starts its expiry janitor;
// call Close to stop it.
func NewServer() *Server {
	s := NewManualServer()
	go s.janitor()
	return s
}

// NewManualServer returns an empty registry with no background janitor:
// the owner drives expiry by calling Sweep. This is the construction the
// deterministic simulation uses — expiry happens exactly when the event
// loop schedules it, never on a wall-clock tick.
func NewManualServer() *Server {
	s := &Server{
		jcap: defaultJournalCapacity,
		wake: make(chan struct{}),
		stop: make(chan struct{}),
	}
	s.nowFn.Store(time.Now)
	for i := range s.shards {
		s.shards[i].reset()
	}
	return s
}

// Sweep runs one expiry pass at the registry's current clock reading,
// deleting lapsed registrations and journaling each expiry, then any due
// durability work (interval fsync, snapshot). The background janitor
// calls this every sweepInterval; a manual registry's owner calls it on
// its own schedule.
func (s *Server) Sweep() {
	s.expireSweep()
	s.walMaintain()
}

// Close stops the expiry janitor, wakes parked watchers, and closes the
// WAL (flushed, but without the clean-shutdown marker — use Shutdown for
// a marked close that lets the next boot skip tail recovery).
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.jmu.Lock()
		if s.wal != nil && s.wal.f != nil {
			s.wal.f.Sync()
			s.wal.f.Close()
			s.wal.f = nil
		}
		close(s.wake)
		s.wake = make(chan struct{})
		s.jmu.Unlock()
	})
}

// SetClock overrides the time source (tests only).
func (s *Server) SetClock(now func() time.Time) { s.nowFn.Store(now) }

// SetAuditRecorder installs the audit recorder registry lifecycle events
// (expiries, re-homes, recovery) are reported to; nil turns recording
// off. If the registry recovered from an unclean shutdown before a
// recorder existed, the deferred registry.recovered event is emitted now.
func (s *Server) SetAuditRecorder(r audit.Recorder) {
	if r == nil {
		s.auditRec.Store(nil)
		return
	}
	s.auditRec.Store(&r)
	if s.recoveredPending.CompareAndSwap(true, false) {
		s.auditEvent(audit.Event{Type: audit.RegistryRecovered, Detail: s.recoveredMsg})
	}
}

// auditEvent emits an audit event if a recorder is installed.
func (s *Server) auditEvent(ev audit.Event) {
	p := s.auditRec.Load()
	if p != nil {
		(*p).Record(ev)
	}
}

func (s *Server) now() time.Time { return s.nowFn.Load().(func() time.Time)() }

// SetJournalCapacity resizes the change journal (set before traffic
// flows; existing excess history is discarded).
func (s *Server) SetJournalCapacity(n int) {
	if n < 1 {
		n = 1
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.jcap = n
	s.journal.keep(n)
}

// changeRing holds the journal: the most recent changes, oldest first,
// in an array that grows to the journal capacity and is then written
// round, so a steady stream of appends neither reallocates nor moves
// the changes it holds.
type changeRing struct {
	buf  []Change
	head int // index of the oldest change once buf is full
}

func (r *changeRing) len() int { return len(r.buf) }

// push appends c, overwriting the oldest change once the ring holds max.
func (r *changeRing) push(c Change, max int) {
	if len(r.buf) < max {
		r.buf = append(r.buf, c)
		return
	}
	r.buf[r.head] = c
	r.head = (r.head + 1) % len(r.buf)
}

// last returns the newest k changes, oldest first, as up to two runs.
func (r *changeRing) last(k int) (a, b []Change) {
	n := len(r.buf)
	start := r.head + n - k
	if start >= n {
		start -= n
		return r.buf[start : start+k], nil
	}
	return r.buf[start:], r.buf[:r.head]
}

// keep drops all but the newest n changes, laying them out in order.
func (r *changeRing) keep(n int) {
	a, b := r.last(min(n, len(r.buf)))
	r.buf, r.head = append(append(make([]Change, 0, len(a)+len(b)), a...), b...), 0
}

// reset empties the ring, keeping its array.
func (r *changeRing) reset() {
	clear(r.buf)
	r.buf, r.head = r.buf[:0], 0
}

func shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() & (numShards - 1))
}

func (s *Server) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// ShardLoads returns cumulative mutations (saves and deletes) per index
// shard. The simulation harness tests this distribution for uniformity
// under churn — a hot shard here is a hot mutex under load.
func (s *Server) ShardLoads() []int64 {
	out := make([]int64, numShards)
	for i := range s.shardOps {
		out[i] = s.shardOps[i].Load()
	}
	return out
}

// JournalStats reports the journal's current length, capacity and head
// sequence number — how close watchers are to being forced into resync.
func (s *Server) JournalStats() (length, capacity int, seq uint64) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journal.len(), s.jcap, s.seq
}

// appendBatch journals cs in order, writes their WAL frames (when
// durable) with one write, and one fsync under FsyncAlways, then wakes
// watchers once: the one append path every mutation takes. A change
// with Seq 0 takes the next sequence number; a replicated change keeps
// its leader's, and one that does not follow the journal head restarts
// the ring (see ApplyReplicated). Deletes and expiries journal identity,
// not payload. Expires carries the registration deadline of adds and
// updates so recovery can re-arm leases with their remaining lifetime.
// The caller has installed cs in the shards and holds the shard lock of
// every key in cs until appendBatch returns, so no reader sees a change
// before its frame is written and per-key journal order matches map
// order. appendBatch numbers and trims cs in place.
func (s *Server) appendBatch(cs []Change) {
	if len(cs) == 0 {
		return
	}
	s.jmu.Lock()
	for i := range cs {
		c := &cs[i]
		switch {
		case c.Seq == 0:
			c.Seq = s.seq + 1
		case c.Seq != s.seq+1:
			// Non-contiguous feed (the leader's journal outran us and we
			// were re-grounded mid-stream): the ring's slice math assumes
			// contiguous numbering, so it must restart at the new position.
			s.journal.reset()
		}
		s.seq = c.Seq
		if c.Op == OpDelete || c.Op == OpExpire {
			// Invalidation needs identity, not payload; drop the heavy fields.
			c.Entry = Entry{Key: c.Entry.Key, Name: c.Entry.Name}
		}
		s.journal.push(*c, s.jcap)
	}
	s.walAppend(cs)
	close(s.wake)
	s.wake = make(chan struct{})
	s.jmu.Unlock()
}

// allShards is the lockShards mask of every shard.
const allShards = 1<<numShards - 1

// lockShards write-locks the shards whose bits are set in mask, in
// index order: the order every multi-shard mutator takes them in.
func (s *Server) lockShards(mask uint16) {
	for i := range s.shards {
		if mask&(1<<i) != 0 {
			s.shards[i].mu.Lock()
		}
	}
}

// unlockShards releases what lockShards(mask) took.
func (s *Server) unlockShards(mask uint16) {
	for i := len(s.shards) - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			s.shards[i].mu.Unlock()
		}
	}
}

// janitor deletes lapsed registrations and journals each expiry, so
// watchers learn about silently dead services without polling.
func (s *Server) janitor() {
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

func (s *Server) expireSweep() {
	if s.replica.Load() != nil {
		// Replicas never journal their own expiries: reads already skip
		// lapsed entries, and the authoritative expire record arrives from
		// the leader's feed under the leader's sequence number. A local
		// sweep here would assign divergent sequence numbers.
		return
	}
	now := s.now()
	var lapsed []Change
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		lapsed = lapsed[:0]
		for key, rec := range sh.entries {
			if now.After(rec.expires) {
				sh.remove(key)
				lapsed = append(lapsed, Change{Op: OpExpire, Entry: rec.entry})
			}
		}
		// Key order, not map order: the same registry journals (and writes
		// to its WAL) the same sweep identically on every run.
		slices.SortFunc(lapsed, func(a, b Change) int { return strings.Compare(a.Entry.Key, b.Entry.Key) })
		s.appendBatch(lapsed)
		sh.mu.Unlock()
		for _, c := range lapsed {
			s.auditEvent(audit.Event{Type: audit.Expire, Service: c.Entry.Name,
				Detail: "registration TTL lapsed (gateway went silent)"})
		}
	}
}

// Save registers or replaces an entry with the given TTL and returns its
// key: a batch of one. The registry keeps its own copy of e.
func (s *Server) Save(e Entry, ttl time.Duration) string {
	var key [1]string
	s.save([]Entry{e}, ttl, key[:], true)
	return key[0]
}

// SaveAll registers every entry under one TTL and returns the keys in
// order — the batched form gateways use to renew all their exports in a
// single round trip. The batch is journaled and written as one: one WAL
// write, one fsync under FsyncAlways, one watcher wake. The registry
// keeps its own copy of every entry.
func (s *Server) SaveAll(entries []Entry, ttl time.Duration) []string {
	keys := make([]string, len(entries))
	s.save(entries, ttl, keys, true)
	return keys
}

// saveDecoded is SaveAll for entries a wire codec just decoded: nothing
// else holds them, so they are installed as they are, not copied.
func (s *Server) saveDecoded(entries []Entry, ttl time.Duration) []string {
	keys := make([]string, len(entries))
	s.save(entries, ttl, keys, false)
	return keys
}

// save installs entries under one deadline, filling keys (generating
// those entries lack), and appends them as one batch. With clone it
// installs copies; otherwise it takes the entries' category maps as
// they are. It holds the shard locks of every key until the batch is
// written, so no reader sees an entry before its WAL frame is on the
// file. The record and its journal change share one entry.
func (s *Server) save(entries []Entry, ttl time.Duration, keys []string, clone bool) {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	var mask uint16
	for i := range entries {
		if keys[i] = entries[i].Key; keys[i] == "" {
			keys[i] = NewKey()
		}
		mask |= 1 << shardIndex(keys[i])
	}
	var one [1]Change
	cs := one[:0]
	if len(entries) > 1 {
		cs = make([]Change, 0, len(entries))
	}
	var rehomes []audit.Event
	s.lockShards(mask)
	now := s.now()
	deadline := now.Add(ttl)
	for i, e := range entries {
		if clone {
			e = e.Clone()
		}
		e.Key = keys[i]
		idx := shardIndex(e.Key)
		sh := &s.shards[idx]
		s.saves.Add(1)
		s.shardOps[idx].Add(1)
		op := OpAdd
		if old, ok := sh.entries[e.Key]; ok && !now.After(old.expires) {
			op = OpUpdate
			if old.entry.AccessPoint != e.AccessPoint {
				rehomes = append(rehomes, audit.Event{Type: audit.ReHome, Service: e.Name,
					Detail: old.entry.AccessPoint + " → " + e.AccessPoint})
			}
		}
		sh.put(&record{entry: e, expires: deadline})
		cs = append(cs, Change{Op: op, Entry: e, Expires: deadline})
	}
	s.appendBatch(cs)
	s.unlockShards(mask)
	for _, ev := range rehomes {
		s.auditEvent(ev)
	}
}

// Delete removes an entry; deleting an unknown key is not an error,
// matching UDDI semantics for already-expired registrations.
func (s *Server) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if rec, ok := sh.remove(key); ok {
		s.shardOps[shardIndex(key)].Add(1)
		s.appendBatch([]Change{{Op: OpDelete, Entry: rec.entry}})
	}
	sh.mu.Unlock()
}

// Get returns the entry for key if present and unexpired.
func (s *Server) Get(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.entries[key]
	if !ok || s.now().After(rec.expires) {
		return Entry{}, false
	}
	return rec.entry.Clone(), true
}

// Find returns unexpired entries matching q, ordered by name then key for
// determinism. Expired entries are skipped (the janitor deletes and
// journals them). Each shard is probed through its category postings;
// only a query without categories reads every entry.
func (s *Server) Find(q Query) []Entry {
	s.finds.Add(1)
	now := s.now()
	m := q.matcher()
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for rec := range sh.candidates(q).all {
			if now.After(rec.expires) {
				continue
			}
			if m.matches(rec.entry) {
				out = append(out, rec.entry.Clone())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len reports the number of live entries.
func (s *Server) Len() int {
	n := 0
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if !now.After(rec.expires) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns cumulative (saves, finds) counters.
func (s *Server) Stats() (saves, finds int64) {
	return s.saves.Load(), s.finds.Load()
}

// Seq returns the sequence number of the most recent change.
func (s *Server) Seq() uint64 {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.seq
}

// Changes returns the journal entries with sequence numbers greater than
// since, plus the cursor to resume from. resync is true when the journal
// no longer covers since (the watcher fell too far behind, or it resumed
// against a restarted registry): the watcher must discard everything it
// cached and continue from next. One call returns at most one batch —
// the changes until their encoded size passes pageBytes — and next is
// then the last one's seq: a caller that wants the whole tail resumes
// from next until a call returns none. The entries share storage with
// the registry's records and must not be modified.
func (s *Server) Changes(since uint64) (changes []Change, next uint64, resync bool) {
	changes, next, _, resync = s.ChangesEpoch(since, 0, false)
	return changes, next, resync
}

// ChangesEpoch is Changes for a watcher that also states which replication
// epoch its cursor came from (0 means unknown — legacy behavior). The
// epoch lets the registry serve cursors across a failover:
//
//   - A cursor from an older epoch pointing past that regime's end is
//     replayed from the epoch boundary — the last journal position the
//     regimes share — instead of resyncing. Journal ops are idempotent
//     per key, so redelivering shared history is safe; records the dead
//     regime acknowledged but never replicated return via the deposed
//     leader's rejoin handback, and any the watcher applied that the new
//     regime never saw age out by TTL.
//   - A replica holds a same-regime cursor that is ahead of its feed
//     (nothing lost — the watcher just raced the replication lag) and
//     answers it once the feed catches up.
//
// strict disables the boundary replay — a diverged cursor resyncs. The
// replication feed itself uses strict mode: a replica must mirror its
// leader exactly, so records it applied beyond the boundary have to be
// discarded by a state transfer, not papered over by replay (replayed
// records at or below its own position would be skipped as duplicates).
func (s *Server) ChangesEpoch(since, sinceEpoch uint64, strict bool) (changes []Change, next, nextEpoch uint64, resync bool) {
	return s.changesEpoch(since, sinceEpoch, strict, pageBytes)
}

// changesEpoch is ChangesEpoch copying one batch of at most limit
// encoded bytes (see batchLen), or, with limit 0, the whole tail.
func (s *Server) changesEpoch(since, sinceEpoch uint64, strict bool, limit int) (changes []Change, next, nextEpoch uint64, resync bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	nextEpoch = s.epoch
	oldest := s.seq - uint64(s.journal.len()) // journal covers (oldest, seq]
	if sinceEpoch > 0 && sinceEpoch < s.epoch {
		b, ok := s.epochBoundaryLocked(sinceEpoch)
		if !ok {
			// The boundary is unknown (bumped before this node's memory):
			// no way to tell shared history from divergence.
			return nil, s.seq, nextEpoch, true
		}
		if since > b {
			if strict {
				return nil, s.seq, nextEpoch, true
			}
			since = b
		}
	}
	if since > s.seq {
		// A replica shares its leader's sequence space, so a watcher that
		// failed over here can present a cursor the replication feed has
		// not reached yet. The watcher lost nothing — hold its cursor and
		// let it retry once the feed catches up, instead of forcing a full
		// resync. A leader seeing a future same-regime cursor still
		// resyncs: that cursor came from history this node never had.
		if s.ReplicaOf() != "" {
			return nil, since, nextEpoch, false
		}
		return nil, s.seq, nextEpoch, true
	}
	if since < oldest {
		return nil, s.seq, nextEpoch, true
	}
	// Sequence numbers are contiguous, so the requested tail is the
	// ring's newest seq-since changes — no per-record scan of a journal
	// that is mostly history — and only its first batch is copied.
	a, b := s.journal.last(int(s.seq - since))
	n := batchLen(limit, a, b)
	if n == 0 {
		return nil, s.seq, nextEpoch, false
	}
	changes = append(make([]Change, 0, n), a[:min(n, len(a))]...)
	changes = append(changes, b[:n-len(changes)]...)
	if n < len(a)+len(b) {
		return changes, changes[n-1].Seq, nextEpoch, false
	}
	return changes, s.seq, nextEpoch, false
}

// batchLen is how many changes of the runs, taken in order, one batch
// of limit bytes holds: up to and including the one whose encoded size
// (binChangeSize) carries the batch past limit, or all of them when
// limit is 0. With limit pageBytes a batch holds every change either
// wire codec puts in one reply: both cut at pageBytes of their own
// encoding, which for the same entry is never smaller.
func batchLen(limit int, runs ...[]Change) int {
	n, size := 0, 0
	for _, run := range runs {
		for i := range run {
			n++
			if size += binChangeSize(&run[i].Entry); limit > 0 && size >= limit {
				return n
			}
		}
	}
	return n
}

// WatchChanges long-polls the journal: it returns as soon as there are
// changes after since (or a resync condition), blocking up to timeout. A
// zero timeout returns immediately — an empty result with the current
// cursor, which watchers use as a cheap liveness probe.
func (s *Server) WatchChanges(ctx context.Context, since uint64, timeout time.Duration) (changes []Change, next uint64, resync bool, err error) {
	changes, next, _, resync, err = s.WatchChangesEpoch(ctx, since, 0, timeout, false)
	return changes, next, resync, err
}

// WatchChangesEpoch is WatchChanges with the watcher's cursor epoch (see
// ChangesEpoch). A round that crosses an epoch — the watcher's cursor is
// from an older regime — returns immediately even when empty, so the
// watcher re-grounds its cursor and epoch rather than parking on a
// boundary it cannot see.
func (s *Server) WatchChangesEpoch(ctx context.Context, since, sinceEpoch uint64, timeout time.Duration, strict bool) (changes []Change, next, nextEpoch uint64, resync bool, err error) {
	return s.watchChangesEpoch(ctx, since, sinceEpoch, timeout, strict, pageBytes)
}

// watchChangesEpoch is WatchChangesEpoch returning batches of at most
// limit encoded bytes (0: the whole tail; see changesEpoch).
func (s *Server) watchChangesEpoch(ctx context.Context, since, sinceEpoch uint64, timeout time.Duration, strict bool, limit int) (changes []Change, next, nextEpoch uint64, resync bool, err error) {
	// Wall-clock deadline: the swappable clock governs TTLs, not polls.
	deadline := time.Now().Add(timeout)
	for {
		s.jmu.Lock()
		waitCh := s.wake
		s.jmu.Unlock()
		changes, next, nextEpoch, resync = s.changesEpoch(since, sinceEpoch, strict, limit)
		if len(changes) > 0 || resync || (sinceEpoch > 0 && nextEpoch != sinceEpoch) {
			return changes, next, nextEpoch, resync, nil
		}
		select {
		case <-s.stop:
			return nil, next, nextEpoch, false, nil
		default:
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, next, nextEpoch, false, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-waitCh:
			timer.Stop()
		case <-timer.C:
			return nil, next, nextEpoch, false, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, next, nextEpoch, false, ctx.Err()
		}
	}
}
