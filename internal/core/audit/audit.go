// Package audit is the federation's tamper-evident audit plane: a
// structured, append-only log of every cross-boundary decision the
// framework makes — peer links coming up or down, watch streams
// degrading, calls admitted across the home boundary, ACL and
// export-policy denials, authentication refusals and replay rejections,
// service re-homes and registration expiries.
//
// Integrity is layered. Every record carries a chaining hash
// (SHA-256 over the previous record's hash plus a canonical encoding of
// this record), so modifying or dropping any record breaks the chain
// from that point on. Every BatchSize records the log additionally
// seals a Merkle root over the batch's record hashes, so verification
// can name the offending batch rather than just "somewhere after seq
// N", and an operator can note down one short root per batch as an
// external anchor. Verify replays the persisted log (or the in-memory
// window) and recomputes both layers; a single flipped bit, a dropped
// record, or a truncation inside sealed history fails verification with
// the batch that no longer checks out.
//
// The log is designed to sit off the data plane: recording is a
// mutex-guarded hash and ring append (zero steady-state allocations
// without persistence — BenchmarkAuditAppend holds this), a nil
// *Log or nil Recorder records nothing, and disk errors degrade to an
// error surfaced via Stats instead of failing the operation that
// emitted the event.
package audit

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// Type classifies one audited decision.
type Type string

// The audited decision points. Each names the boundary event that
// produced it; Pattern and Detail on the Event carry the specifics.
const (
	// PeerConnect: an import link to a peer home came up (mutually
	// authenticated when the homes have identities).
	PeerConnect Type = "peer.connect"
	// PeerDisconnect: an import link went down; Detail carries the cause
	// (including authentication refusals from either side).
	PeerDisconnect Type = "peer.disconnect"
	// WatchUp / WatchDown / WatchResync: a gateway's repository change
	// stream (the push-invalidation substrate) changed state.
	WatchUp     Type = "watch.up"
	WatchDown   Type = "watch.down"
	WatchResync Type = "watch.resync"
	// CallAdmit: an inbound call cleared the home-boundary checks and was
	// dispatched to a local service.
	CallAdmit Type = "call.admit"
	// PolicyDeny: the export policy or service ACL refused a caller;
	// Pattern names the deny pattern/rule that fired ("" when the refusal
	// was an allow list that nothing matched).
	PolicyDeny Type = "policy.deny"
	// AuthRefused: a request carried no credentials, an untrusted
	// identity, or a signature that did not verify.
	AuthRefused Type = "auth.refused"
	// ReplayRejected: a correctly signed request was rejected for a
	// replayed nonce or a timestamp outside the skew window.
	ReplayRejected Type = "auth.replay"
	// ReHome: a registered service moved to a new gateway endpoint.
	ReHome Type = "service.rehome"
	// Expire: a registration's TTL lapsed (its gateway went silent).
	Expire Type = "service.expire"
	// RegistryRecovered: the repository restarted from an unclean
	// shutdown and rebuilt its state from snapshot + WAL replay; Detail
	// carries the recovered entry/record counts and any torn-tail repair.
	RegistryRecovered Type = "registry.recovered"
	// RegistryShutdown: the repository closed cleanly — WAL flushed and
	// marked, so the next boot skips tail-scan recovery.
	RegistryShutdown Type = "registry.shutdown"
	// SessionEstablish: a signed handshake established (or renewed) a
	// binary fast-path HMAC session with a peer home; Detail carries the
	// session ID and lifetime.
	SessionEstablish Type = "session.establish"
	// SessionExpire: a session ended without renewal — its connection
	// closed or its lifetime lapsed unused.
	SessionExpire Type = "session.expire"
	// SessionRekey: a session reached its lifetime bound and was
	// replaced in place by a fresh handshake on the same link.
	SessionRekey Type = "session.rekey"
	// ReplicaAttach: this node attached (or re-attached) to a leader's
	// replication feed; Detail carries the leader, the sequence number
	// the state transfer grounded at, and the epoch.
	ReplicaAttach Type = "replica.attach"
	// ReplicaPromote: this node took over as replication leader; Detail
	// carries the new epoch and the sequence number it was elected at.
	ReplicaPromote Type = "replica.promote"
)

// Event is one audited decision, as emitted by an instrumented
// component. The log stamps it into a Record.
type Event struct {
	// Type classifies the decision.
	Type Type `json:"type"`
	// Face names the emitting component ("vsr", "vsg:havi-net", "peer",
	// "auth"), stamped by WithFace at wiring time.
	Face string `json:"face,omitempty"`
	// Home is the home that recorded the event (the decider, not the
	// subject).
	Home string `json:"home,omitempty"`
	// Caller is the remote principal the decision was about, when there
	// is one ("" for open-mode callers and component-local events).
	Caller string `json:"caller,omitempty"`
	// Service is the federation service ID involved, if any.
	Service string `json:"service,omitempty"`
	// Op is the invoked operation (call events).
	Op string `json:"op,omitempty"`
	// Pattern is the policy/ACL pattern that decided a denial.
	Pattern string `json:"pattern,omitempty"`
	// Detail carries free-form specifics (error text, old→new endpoint).
	Detail string `json:"detail,omitempty"`
}

// Record is one sealed audit log entry.
type Record struct {
	// Seq numbers records from 1, with no gaps.
	Seq uint64 `json:"seq"`
	// TimeMS is the record's wall-clock timestamp in Unix milliseconds.
	TimeMS int64 `json:"t"`
	Event
	// Hash is the hex chaining hash: SHA-256 over the previous record's
	// hash followed by this record's canonical encoding.
	Hash string `json:"hash"`
}

// Time returns the record's timestamp.
func (r Record) Time() time.Time { return time.UnixMilli(r.TimeMS) }

// Root is one sealed Merkle batch: the root over BatchSize consecutive
// record hashes.
type Root struct {
	// Batch is the zero-based batch index.
	Batch int `json:"batch"`
	// FirstSeq and LastSeq delimit the records the root covers.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Root is the hex Merkle root over the batch's record hashes.
	Root string `json:"root"`
}

// Recorder accepts audit events. Components hold a Recorder, not the
// Log, so tests can capture events and wiring can stamp faces; a nil
// Recorder interface held by an instrumented component means auditing
// is off there and must cost nothing.
type Recorder interface {
	Record(Event)
}

// WithFace wraps a recorder so every event it records carries the given
// face and home (unless the event already set them). A nil recorder
// stays nil, so wiring can pass the result around without nil checks of
// its own.
func WithFace(r Recorder, face, home string) Recorder {
	if r == nil {
		return nil
	}
	return facedRecorder{r: r, face: face, home: home}
}

type facedRecorder struct {
	r    Recorder
	face string
	home string
}

func (f facedRecorder) Record(ev Event) {
	if ev.Face == "" {
		ev.Face = f.face
	}
	if ev.Home == "" {
		ev.Home = f.home
	}
	f.r.Record(ev)
}

// Func adapts a function to the Recorder interface (tests).
type Func func(Event)

// Record implements Recorder.
func (f Func) Record(ev Event) { f(ev) }

// Defaults for Options fields left zero.
const (
	// DefaultBatchSize is the Merkle batch size: how many records each
	// sealed root covers.
	DefaultBatchSize = 64
	// DefaultRingSize bounds the in-memory query window.
	DefaultRingSize = 1024
)

// Options configures a Log.
type Options struct {
	// Path, when non-empty, appends every record (and every sealed root)
	// to this file as JSON lines; Verify replays it. Empty keeps the log
	// in memory only.
	Path string
	// BatchSize is the Merkle batch size (DefaultBatchSize when zero).
	BatchSize int
	// RingSize bounds the in-memory record window served to queries
	// (DefaultRingSize when zero). The hash chain and roots cover every
	// record ever logged regardless of the ring bound.
	RingSize int
}

// Log is the append-only audit log. A nil *Log is a valid no-op
// recorder, so components can hold one unconditionally.
type Log struct {
	path  string
	batch int

	mu   sync.Mutex
	seq  uint64
	prev [sha256.Size]byte // chaining hash of the newest record

	// ring is the bounded in-memory window: a circular buffer of the
	// most recent records. head is the index of the oldest element once
	// the ring has wrapped (count == len(ring)).
	ring  []Record
	head  int
	count int
	// ringPrev is the chaining hash of the record just before the oldest
	// ring entry, so the in-memory window stays verifiable after
	// eviction.
	ringPrev [sha256.Size]byte

	// pending holds the current (unsealed) batch's record hashes.
	pending      [][sha256.Size]byte
	pendingFirst uint64
	roots        []Root

	// scratch is the reused canonical-encoding buffer; holding it in the
	// log keeps steady-state recording allocation-free.
	scratch []byte

	f        *os.File
	w        *bufio.Writer
	writeErr string

	nowFn func() time.Time
}

// New opens an audit log. With a Path, records append to the file; an
// existing file is first replayed (and verified) so the chain, sequence
// numbers and roots continue across restarts.
func New(opts Options) (*Log, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	l := &Log{
		path:    opts.Path,
		batch:   opts.BatchSize,
		ring:    make([]Record, opts.RingSize),
		pending: make([][sha256.Size]byte, 0, opts.BatchSize),
		// Sized so a typical record encodes without growing; growth would
		// read as cold-start allocations in the gated append benchmark.
		scratch: make([]byte, 0, 1024),
		nowFn:   time.Now,
	}
	if opts.Path != "" {
		if err := l.reopen(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reopen replays an existing log file into the in-memory state and
// opens it for appending. The replay is a full verification: a tampered
// file refuses to continue rather than chaining new records onto a
// broken history.
func (l *Log) reopen() error {
	st, err := replayFile(l.path, l.batch, func(r Record) {
		l.appendRing(r)
	})
	if err != nil {
		if os.IsNotExist(err) {
			st = replayState{}
		} else {
			return fmt.Errorf("audit: replay %s: %w", l.path, err)
		}
	}
	l.seq = st.seq
	l.prev = st.prev
	l.pending = append(l.pending[:0], st.pending...)
	l.pendingFirst = st.pendingFirst
	l.roots = st.roots
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("audit: open %s: %w", l.path, err)
	}
	if err := endLine(f); err != nil {
		f.Close()
		return fmt.Errorf("audit: open %s: %w", l.path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return nil
}

// endLine ends a non-empty file that lacks its final newline (a crash
// can cut just that byte; replay accepts the last line without it), so
// the next record starts a line of its own instead of fusing with the
// last one into a line no replay accepts.
func endLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// canonical appends the record's canonical encoding to buf: a version
// tag and every field in fixed order, each quoted so no field content
// can masquerade as a field boundary.
func canonical(buf []byte, r Record) []byte {
	buf = append(buf, "homeconnect.audit.v1\n"...)
	buf = strconv.AppendUint(buf, r.Seq, 10)
	buf = append(buf, '\n')
	buf = strconv.AppendInt(buf, r.TimeMS, 10)
	for _, s := range [...]string{
		string(r.Type), r.Face, r.Home, r.Caller, r.Service, r.Op, r.Pattern, r.Detail,
	} {
		buf = append(buf, '\n')
		buf = strconv.AppendQuote(buf, s)
	}
	return buf
}

// chainHash computes a record's chaining hash from its predecessor's.
func chainHash(prev [sha256.Size]byte, enc []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(enc)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// merkleRoot folds a batch of record hashes into one root: leaves are
// the chaining hashes; odd nodes promote. A single leaf is its own
// root.
func merkleRoot(leaves [][sha256.Size]byte) [sha256.Size]byte {
	if len(leaves) == 0 {
		return [sha256.Size]byte{}
	}
	level := make([][sha256.Size]byte, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			h := sha256.New()
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var out [sha256.Size]byte
			h.Sum(out[:0])
			next = append(next, out)
		}
		level = next
	}
	return level[0]
}

// Record appends one event to the log. It implements Recorder and is
// safe for concurrent use; on a nil log it is a no-op.
func (l *Log) Record(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	rec := Record{Seq: l.seq, TimeMS: l.nowFn().UnixMilli(), Event: ev}
	l.scratch = canonical(l.scratch[:0], rec)
	sum := chainHash(l.prev, l.scratch)
	l.prev = sum
	rec.Hash = hex.EncodeToString(sum[:])
	l.appendRing(rec)
	if len(l.pending) == 0 {
		l.pendingFirst = rec.Seq
	}
	l.pending = append(l.pending, sum)
	l.persistRecord(rec)
	if len(l.pending) >= l.batch {
		root := Root{
			Batch:    len(l.roots),
			FirstSeq: l.pendingFirst,
			LastSeq:  rec.Seq,
		}
		sum := merkleRoot(l.pending)
		root.Root = hex.EncodeToString(sum[:])
		l.roots = append(l.roots, root)
		l.pending = l.pending[:0]
		l.persistRoot(root)
	}
}

// appendRing adds a record to the bounded in-memory window, remembering
// the chaining hash of whatever it evicts.
func (l *Log) appendRing(r Record) {
	if l.count == len(l.ring) {
		evicted := l.ring[l.head]
		if sum, err := hex.DecodeString(evicted.Hash); err == nil && len(sum) == sha256.Size {
			copy(l.ringPrev[:], sum)
		}
		l.ring[l.head] = r
		l.head = (l.head + 1) % len(l.ring)
		return
	}
	l.ring[(l.head+l.count)%len(l.ring)] = r
	l.count++
}

// line is the persisted JSONL envelope: exactly one of Record and Root
// per line.
type line struct {
	Record *Record `json:"record,omitempty"`
	Root   *Root   `json:"root,omitempty"`
}

func (l *Log) persistRecord(r Record) {
	if l.w == nil {
		return
	}
	l.writeLine(line{Record: &r})
}

func (l *Log) persistRoot(root Root) {
	if l.w == nil {
		return
	}
	l.writeLine(line{Root: &root})
}

// writeLine appends one JSON line, flushing so a crash loses at most
// the write in flight. Disk failure must not take down the data plane:
// the error is surfaced via Stats and the log keeps running in memory.
func (l *Log) writeLine(ln line) {
	data, err := json.Marshal(ln)
	if err == nil {
		_, err = l.w.Write(append(data, '\n'))
		if err == nil {
			err = l.w.Flush()
		}
	}
	if err != nil {
		l.writeErr = err.Error()
	}
}

// Seq returns the sequence number of the newest record.
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Tail returns up to n of the most recent records, oldest first. A
// non-empty typ filters to that event type (still at most n results,
// scanned over the in-memory window).
func (l *Log) Tail(n int, typ Type) []Record {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, min(n, l.count))
	// Walk newest → oldest collecting matches, then reverse.
	for i := l.count - 1; i >= 0 && len(out) < n; i-- {
		r := l.ring[(l.head+i)%len(l.ring)]
		if typ != "" && r.Type != typ {
			continue
		}
		out = append(out, r)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Roots returns every sealed Merkle root, oldest first.
func (l *Log) Roots() []Root {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Root(nil), l.roots...)
}

// Stats summarizes the log for health surfaces.
type Stats struct {
	// Seq is the newest record's sequence number (the record count).
	Seq uint64 `json:"seq"`
	// Window is how many records the in-memory query window holds.
	Window int `json:"window"`
	// Batches counts sealed Merkle roots.
	Batches int `json:"batches"`
	// BatchSize is the Merkle batch size.
	BatchSize int `json:"batch_size"`
	// LastRoot is the newest sealed root (hex), the value an operator
	// would anchor externally.
	LastRoot string `json:"last_root,omitempty"`
	// Path is the persistence file ("" for memory-only logs).
	Path string `json:"path,omitempty"`
	// WriteError is the most recent persistence failure, if any: the log
	// keeps recording in memory but the file is no longer complete.
	WriteError string `json:"write_error,omitempty"`
}

// Stats returns a snapshot summary.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Seq:        l.seq,
		Window:     l.count,
		Batches:    len(l.roots),
		BatchSize:  l.batch,
		Path:       l.path,
		WriteError: l.writeErr,
	}
	if len(l.roots) > 0 {
		st.LastRoot = l.roots[len(l.roots)-1].Root
	}
	return st
}

// Close flushes and closes the persistence file, if any.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		_ = l.w.Flush()
		l.w = nil
	}
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}
