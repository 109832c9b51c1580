// wal.go gives the registry a disk life: a CRC-framed write-ahead log
// riding the change journal (every mutation is framed and written to the
// active WAL segment before the caller's save/delete returns), periodic
// atomic snapshots, and boot-time recovery that replays snapshot + WAL
// tail so sequence numbers stay monotone across restarts. Watchers and
// peer replication cursors therefore resume from `since` after a crash
// instead of being forced into a full-snapshot resync.
//
// On-disk layout inside DurabilityOptions.Dir:
//
//	wal-<seq>.log   WAL segments; <seq> is 16 hex digits naming the first
//	                sequence number the segment may contain. Each segment
//	                opens with walMagic and then frames:
//	                  u32le payload length | u32le CRC-32 (IEEE) | payload
//	                A payload is: version byte, op byte ('a','u','d','e',
//	                or 'S' for the clean-shutdown marker), uvarint seq,
//	                uvarint expiry (unix milli; adds/updates only), then
//	                the entry fields as length-prefixed strings and the
//	                sorted category pairs.
//	snap-<seq>.snap Snapshots; <seq> names the journal position the
//	                snapshot covers. snapMagic then one frame whose
//	                payload is version, uvarint seq, uvarint count, and
//	                count (expiry, entry) groups. The frame ends at end of
//	                file, so the file's length bounds it (maxWALFrame
//	                bounds WAL records only). Written to a .tmp file,
//	                fsynced, then renamed; the two newest are kept so a
//	                corrupt snapshot falls back to its predecessor.
//
// Records are written straight to the file descriptor (no user-space
// buffering), so a kill -9 loses nothing the registry acknowledged — only
// power loss can tear a frame, and a torn tail truncates at the last
// valid frame with a logged + audited registry.recovered event.
package uddi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"homeconnect/internal/core/audit"
)

const (
	walMagic  = "homeconnect-wal-v1\n"
	snapMagic = "homeconnect-snap-v1\n"

	recVersion = 1

	opWALAdd    = 'a'
	opWALUpdate = 'u'
	opWALDelete = 'd'
	opWALExpire = 'e'
	// opWALMarker is the clean-shutdown marker: Shutdown writes it as the
	// final frame, recovery truncates it back off. A crash never writes
	// one, so its absence is what distinguishes a dirty boot.
	opWALMarker = 'S'
	// opWALEpoch records a replication epoch change (promotion, or a
	// replica adopting a new leader): uvarint epoch and the leader name
	// follow the journal position. Recovery replays it so a restarted node
	// remembers which leader regime it last acknowledged — the fencing
	// state that stops a stale leader from feeding anyone (see replica.go).
	opWALEpoch = 'E'

	// defaultSnapshotEvery is how many WAL records accumulate between
	// snapshots when the owner doesn't say.
	defaultSnapshotEvery = 1024

	// maxWALFrame bounds a WAL frame read during recovery so a corrupt
	// length word cannot ask for gigabytes. A snapshot frame is bounded by
	// its file's length instead.
	maxWALFrame = 4 << 20

	// snapBufSize is the buffer snapshots are written and read through,
	// and WAL segments read through at boot. Entries stream through it
	// one at a time, so writing or loading a snapshot takes the same
	// memory at any registry size (plus, on load, the entries themselves).
	snapBufSize = 64 << 10

	// maxIdleScratch is the largest frame buffer the WAL keeps between
	// batches once its batches are small again, the transport's
	// maxIdleFrameBuf rule: a run of large batches (a bulk registration,
	// a replica catch-up) shares one buffer, and the first small batch
	// after the run drops it.
	maxIdleScratch = 64 << 10

	// snapshotsKept is how many snapshot generations stay on disk; the
	// older one is the fallback when the newest fails its CRC.
	snapshotsKept = 2
)

// FsyncPolicy says when the WAL is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every batch (a Save, a SaveAll, a replica
	// feed round) before acknowledging it: no acknowledged write is ever
	// lost, at the price of a disk flush per batch.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on the janitor/Sweep cadence (~100ms for a
	// background registry): a power cut loses at most one interval of
	// acknowledged writes; a plain process crash loses nothing because
	// records hit the file descriptor before acknowledgment.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly; the OS writes back on its own
	// schedule. Fastest, and still crash-safe against process death.
	FsyncOff FsyncPolicy = "off"
)

// DurabilityOptions configures a durable registry.
type DurabilityOptions struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Fsync is the flush policy; empty means FsyncInterval.
	Fsync FsyncPolicy
	// SnapshotEvery is the number of WAL records between snapshots;
	// 0 means defaultSnapshotEvery, negative disables snapshots.
	SnapshotEvery int
	// Clock, when set, replaces the registry clock before recovery runs,
	// so persisted expiry deadlines are judged against the owner's
	// (possibly virtual) time. The deterministic simulation uses this.
	Clock func() time.Time
}

// RecoveryStats describes what boot recovery found and did.
type RecoveryStats struct {
	// CleanShutdown is true when the WAL ended with the shutdown marker:
	// the previous process exited through Shutdown, so no tail repair was
	// needed.
	CleanShutdown bool `json:"clean_shutdown"`
	// SnapshotSeq is the journal position of the snapshot that seeded the
	// store (0 when booting from WAL alone).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotFallback is true when the newest snapshot failed its CRC
	// and an older generation was used instead.
	SnapshotFallback bool `json:"snapshot_fallback,omitempty"`
	// Entries is the number of registrations restored.
	Entries int `json:"entries"`
	// LapsedAtBoot counts restored registrations whose TTL deadline had
	// already passed; the first sweep expires and journals them.
	LapsedAtBoot int `json:"lapsed_at_boot,omitempty"`
	// Replayed is the number of WAL records applied over the snapshot.
	Replayed int `json:"replayed"`
	// TornTail is true when the WAL ended in a torn or corrupt frame and
	// was truncated back to the last valid one.
	TornTail bool `json:"torn_tail,omitempty"`
	// DroppedBytes is how much was truncated away repairing the tail.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Seq is the journal sequence number recovery ended on — the floor
	// for every sequence number this process will ever assign.
	Seq uint64 `json:"seq"`
	// DurationMS is wall-clock recovery time.
	DurationMS float64 `json:"duration_ms"`
}

// DurabilityStats is the registry's durability face, served in /health.
type DurabilityStats struct {
	Enabled       bool           `json:"enabled"`
	Dir           string         `json:"dir,omitempty"`
	Fsync         string         `json:"fsync,omitempty"`
	SnapshotEvery int            `json:"snapshot_every,omitempty"`
	Appends       uint64         `json:"appends"`
	Fsyncs        uint64         `json:"fsyncs"`
	Snapshots     uint64         `json:"snapshots"`
	SnapshotSeq   uint64         `json:"snapshot_seq"`
	Segments      int            `json:"segments"`
	WALBytes      int64          `json:"wal_bytes"`
	LastError     string         `json:"last_error,omitempty"`
	Recovery      *RecoveryStats `json:"recovery,omitempty"`
}

// wal is the registry's disk state. Every field is guarded by the
// owning Server's jmu except during single-threaded recovery.
type wal struct {
	dir       string
	policy    FsyncPolicy
	snapEvery int

	f       *os.File // active segment append handle; nil once closed
	segs    []walFile
	snaps   []walFile
	off     int64 // bytes written to the active segment
	scratch []byte

	snapSeq  uint64 // journal position of the newest durable snapshot
	haveSnap bool

	sinceSnap int  // records appended since snapSeq
	snapBusy  bool // a snapshot is being written outside jmu
	dirty     bool // unsynced records present

	appends   uint64
	fsyncs    uint64
	snapshots uint64
	lastErr   string

	recovery RecoveryStats
}

// walFile is one on-disk segment or snapshot, named by sequence number.
type walFile struct {
	seq  uint64
	path string
}

// NewDurableServer returns a registry persisted under opts.Dir, recovered
// from any prior state there, with the expiry janitor running. Call
// Shutdown for a clean stop (Close alone is safe but leaves the WAL
// unmarked, so the next boot takes the recovery path).
func NewDurableServer(opts DurabilityOptions) (*Server, error) {
	s, err := NewManualDurableServer(opts)
	if err != nil {
		return nil, err
	}
	go s.janitor()
	return s, nil
}

// NewManualDurableServer is NewDurableServer without the background
// janitor: the owner drives expiry, fsync-interval flushing and snapshot
// scheduling by calling Sweep. The deterministic simulation uses this.
func NewManualDurableServer(opts DurabilityOptions) (*Server, error) {
	s := NewManualServer()
	if err := s.openDurable(opts); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) openDurable(opts DurabilityOptions) error {
	if opts.Dir == "" {
		return fmt.Errorf("uddi: durability requires a data directory")
	}
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return fmt.Errorf("uddi: unknown fsync policy %q", opts.Fsync)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.Clock != nil {
		s.SetClock(opts.Clock)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return err
	}
	w := &wal{
		dir:       opts.Dir,
		policy:    opts.Fsync,
		snapEvery: opts.SnapshotEvery,
		scratch:   make([]byte, 0, 512),
	}
	start := time.Now()
	if err := s.recover(w); err != nil {
		return err
	}
	w.recovery.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	w.recovery.Seq = s.seq
	w.sinceSnap = int(s.seq - w.snapSeq)
	s.wal = w
	if !w.recovery.CleanShutdown && (w.recovery.Entries > 0 || w.recovery.Replayed > 0 || w.recovery.TornTail) {
		// Unclean boot that restored state: log it, and queue the audit
		// event for whenever a recorder is installed (recovery runs before
		// the federation wires the audit plane up).
		msg := fmt.Sprintf("recovered %d entries to seq %d after unclean shutdown (snapshot %d + %d replayed)",
			w.recovery.Entries, s.seq, w.snapSeq, w.recovery.Replayed)
		if w.recovery.TornTail {
			msg += fmt.Sprintf("; truncated %d bytes of torn WAL tail", w.recovery.DroppedBytes)
		}
		log.Printf("uddi: %s", msg)
		s.recoveredMsg = msg
		s.recoveredPending.Store(true)
	}
	return nil
}

// recover loads the newest valid snapshot, replays the WAL tail into the
// shards and the in-memory journal ring, repairs a torn tail, and leaves
// the active segment open for appends. Runs single-threaded before the
// server is shared, so it mutates shards without locks.
func (s *Server) recover(w *wal) error {
	var err error
	w.snaps, w.segs, err = scanWALDir(w.dir)
	if err != nil {
		return err
	}

	// Newest snapshot first; a corrupt one falls back to its predecessor.
	for i := len(w.snaps) - 1; i >= 0; i-- {
		entries, deadlines, seq, epoch, leader, lerr := loadSnapshot(w.snaps[i].path)
		if lerr != nil {
			log.Printf("uddi: snapshot %s unreadable (%v); falling back", filepath.Base(w.snaps[i].path), lerr)
			w.recovery.SnapshotFallback = true
			continue
		}
		for j, e := range entries {
			s.shardFor(e.Key).put(&record{entry: e, expires: deadlines[j]})
		}
		s.epoch, s.epochLeader = epoch, leader
		w.snapSeq, w.haveSnap = seq, true
		break
	}
	s.seq = w.snapSeq
	w.recovery.SnapshotSeq = w.snapSeq

	// Replay segments in order, each streamed through one reused buffer.
	// Any unreadable frame truncates the log there: the tail (and any
	// later segment) is unacknowledgeable history we can no longer trust.
	r := &walReader{b: make([]byte, 0, snapBufSize)}
	truncated := false
	for i := 0; i < len(w.segs) && !truncated; i++ {
		sg := w.segs[i]
		f, size, oerr := openSized(sg.path)
		if oerr != nil {
			return oerr
		}
		r.reset(f, size)
		if r.fill(len(walMagic)); !bytes.HasPrefix(r.b[r.off:], []byte(walMagic)) {
			f.Close()
			if r.err != nil {
				return r.err
			}
			// Unrecognized segment: treat the whole file as a torn tail.
			truncated = s.truncateWAL(w, i, sg.path, 0, int64(size))
			break
		}
		r.off += len(walMagic)
		cleanAt := int64(-1)
		for r.rest() > 0 {
			off := int64(size - r.rest())
			payload, ferr := r.frame(maxWALFrame)
			if r.err != nil {
				break // an I/O error, not a torn frame
			}
			if ferr != nil {
				truncated = s.truncateWAL(w, i, sg.path, off, int64(size)-off)
				break
			}
			rec, derr := decodeWALRecord(payload)
			if derr != nil {
				truncated = s.truncateWAL(w, i, sg.path, off, int64(size)-off)
				break
			}
			if rec.op == opWALMarker {
				if r.rest() == 0 && i == len(w.segs)-1 {
					cleanAt = off
				}
				continue
			}
			if rec.op == opWALEpoch {
				// Epoch frames replay regardless of the snapshot floor: the
				// last one wins, carrying the leader regime forward. A frame
				// that bumps the epoch also restores the regime boundary —
				// the journal position the frame was written at — so watch
				// cursors from the older regime survive this node's restart
				// (see ChangesEpoch).
				if rec.epoch > s.epoch {
					s.epochMarks = append(s.epochMarks, epochMark{epoch: rec.epoch, seq: rec.seq})
					if len(s.epochMarks) > maxEpochMarks {
						s.epochMarks = s.epochMarks[len(s.epochMarks)-maxEpochMarks:]
					}
				}
				if rec.epoch >= s.epoch {
					s.epoch, s.epochLeader = rec.epoch, rec.leader
				}
				continue
			}
			if rec.seq > w.snapSeq {
				s.applyRecovered(rec)
				w.recovery.Replayed++
			}
		}
		f.Close()
		if r.err != nil {
			return r.err
		}
		if cleanAt >= 0 {
			// Clean shutdown: drop the marker so appends resume after the
			// last real frame.
			if terr := os.Truncate(sg.path, cleanAt); terr != nil {
				return terr
			}
			w.recovery.CleanShutdown = true
		}
	}

	// Count what came back, and what lapsed while we were down — the
	// first sweep expires and journals those.
	now := s.now()
	for i := range s.shards {
		for _, rec := range s.shards[i].entries {
			w.recovery.Entries++
			if now.After(rec.expires) {
				w.recovery.LapsedAtBoot++
			}
		}
	}

	// Open (or create) the active segment for appends.
	if len(w.segs) == 0 {
		if err := w.newSegment(s.seq + 1); err != nil {
			return err
		}
	} else {
		last := w.segs[len(w.segs)-1]
		f, oerr := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return oerr
		}
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return serr
		}
		w.f, w.off = f, st.Size()
	}
	return nil
}

// truncateWAL repairs a torn tail found at offset off of segment i:
// truncate that segment there and delete every later segment. Returns
// true so the replay loop stops.
func (s *Server) truncateWAL(w *wal, i int, path string, off, dropped int64) bool {
	w.recovery.TornTail = true
	w.recovery.DroppedBytes += dropped
	if err := os.Truncate(path, off); err != nil {
		log.Printf("uddi: truncating torn WAL tail %s: %v", filepath.Base(path), err)
	}
	for _, later := range w.segs[i+1:] {
		if st, err := os.Stat(later.path); err == nil {
			w.recovery.DroppedBytes += st.Size()
		}
		if err := os.Remove(later.path); err != nil {
			log.Printf("uddi: removing WAL segment past torn tail: %v", err)
		}
	}
	w.segs = w.segs[:i+1]
	if off == 0 && i == 0 {
		// Whole first segment unreadable: nothing of it survives; recreate
		// it below via newSegment when no usable segment remains.
		os.Remove(path)
		w.segs = w.segs[:0]
	}
	return true
}

// applyRecovered applies one replayed WAL record to the shards and the
// in-memory journal ring, advancing the sequence floor. Recovery-only:
// runs before the server is shared, so no locks.
func (s *Server) applyRecovered(rec walRecord) {
	sh := s.shardFor(rec.entry.Key)
	switch rec.op {
	case opWALAdd, opWALUpdate:
		sh.put(&record{entry: rec.entry, expires: rec.expires})
	case opWALDelete, opWALExpire:
		sh.remove(rec.entry.Key)
	}
	s.seq = rec.seq
	c := Change{Seq: rec.seq, Op: walOpChange(rec.op), Entry: rec.entry}
	if rec.op == opWALDelete || rec.op == opWALExpire {
		c.Entry = Entry{Key: rec.entry.Key, Name: rec.entry.Name}
	}
	// Refilling the ring is what lets Changes(since) cover the span back
	// to the snapshot: watchers and peer cursors inside that window
	// resume with no resync after a restart.
	s.journal.push(c, s.jcap)
}

// walAppend frames a batch of journaled changes and writes the frames
// to the active segment with one write, then syncs once under
// FsyncAlways, all before the batch is acknowledged. Called under jmu,
// right after the in-memory journal append, so WAL order is journal
// order. The scratch buffer is reused, and grown at most once per batch
// to the batch's size bound: with fsync off a batch of one adds no
// allocations over the in-memory append.
func (s *Server) walAppend(cs []Change) {
	w := s.wal
	if w == nil || w.f == nil {
		return
	}
	n := 0
	for i := range cs {
		// Frame header, version byte, then the change as binChangeSize
		// bounds it.
		n += 8 + 1 + binChangeSize(&cs[i].Entry)
	}
	b := slices.Grow(w.scratch[:0], n)
	for i := range cs {
		c := &cs[i]
		at := len(b)
		b = appendWALRecord(append(b, 0, 0, 0, 0, 0, 0, 0, 0), changeOpWAL(c.Op), c.Seq, c.Entry, c.Expires)
		sealFrame(b[at:])
	}
	if !w.write(b) {
		return
	}
	w.appends += uint64(len(cs))
	w.sinceSnap += len(cs)
	if w.policy == FsyncAlways {
		w.sync()
	}
}

// sealFrame fills in the header of frame: its payload's length and CRC
// over the eight bytes reserved at its start.
func sealFrame(frame []byte) {
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// write writes b, whole frames, to the active segment with one write
// and keeps b's buffer for the next batch (see maxIdleScratch). It
// reports whether the write succeeded; a failure is kept in lastErr.
func (w *wal) write(b []byte) bool {
	w.scratch = b[:0]
	if cap(b) > maxIdleScratch && len(b) <= maxIdleScratch {
		w.scratch = nil
	}
	n, err := w.f.Write(b)
	w.off += int64(n)
	if err != nil {
		w.lastErr = "append: " + err.Error()
		return false
	}
	w.dirty = true
	return true
}

// sync flushes the active segment to stable storage.
func (w *wal) sync() {
	if err := w.f.Sync(); err != nil {
		w.lastErr = "fsync: " + err.Error()
	} else {
		w.fsyncs++
		w.dirty = false
	}
}

// walMaintain runs the periodic durability work — interval fsync and
// snapshot scheduling — on the Sweep/janitor cadence.
func (s *Server) walMaintain() {
	s.jmu.Lock()
	w := s.wal
	var snap bool
	if w != nil && w.f != nil {
		if w.policy == FsyncInterval && w.dirty {
			w.sync()
		}
		snap = w.snapEvery > 0 && w.sinceSnap >= w.snapEvery && !w.snapBusy
		if snap {
			w.snapBusy = true
		}
	}
	s.jmu.Unlock()
	if snap {
		if err := s.snapshotNow(); err != nil {
			log.Printf("uddi: snapshot: %v", err)
		}
	}
}

// Snapshot forces a snapshot now (tests and operators; the steady-state
// trigger is SnapshotEvery records via Sweep/the janitor).
func (s *Server) Snapshot() error {
	s.jmu.Lock()
	if s.wal == nil || s.wal.f == nil || s.wal.snapBusy {
		s.jmu.Unlock()
		return nil
	}
	s.wal.snapBusy = true
	s.jmu.Unlock()
	return s.snapshotNow()
}

// snapshotNow scans the shards into a snapshot file, atomically installs
// it, rotates the WAL to a fresh segment and prunes history the previous
// snapshot generation no longer needs. Caller has set snapBusy; the scan
// runs outside jmu (lock order is shard → jmu, never the reverse) so
// mutators keep flowing — the snapshot is fuzzy, and replaying the WAL
// span above its seq over it is idempotent, so recovery converges.
func (s *Server) snapshotNow() error {
	s.jmu.Lock()
	seq := s.seq
	if s.wal.haveSnap && seq == s.wal.snapSeq {
		// Nothing journaled since the newest snapshot. Writing it again
		// would reuse its file and segment names, and pruning the
		// duplicates would delete the live snapshot and segment.
		s.wal.snapBusy = false
		s.jmu.Unlock()
		return nil
	}
	dir := s.wal.dir
	epoch, leader := s.epoch, s.epochLeader
	s.jmu.Unlock()

	recs := s.sortedRecords()
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
	err := writeSnapshot(path, seq, recs, epoch, leader)

	s.jmu.Lock()
	defer s.jmu.Unlock()
	w := s.wal
	w.snapBusy = false
	if err != nil {
		w.lastErr = "snapshot: " + err.Error()
		return err
	}
	if w.haveSnap && seq < w.snapSeq {
		// The registry was re-grounded (a state transfer reset the WAL)
		// while this snapshot was being written: it describes a history
		// that no longer exists here. Discard it.
		os.Remove(path)
		return nil
	}
	w.snapshots++
	prevSnap, hadPrev := w.snapSeq, w.haveSnap
	w.snapSeq, w.haveSnap = seq, true
	w.snaps = append(w.snaps, walFile{seq: seq, path: path})
	w.sinceSnap = int(s.seq - seq)

	// Rotate: the next segment starts after everything written so far
	// (mutations kept landing in the old segment during the scan).
	if w.f != nil {
		if serr := w.f.Sync(); serr == nil {
			w.fsyncs++
			w.dirty = false
		}
		w.f.Close()
		w.f = nil
		if nerr := w.newSegment(s.seq + 1); nerr != nil {
			w.lastErr = "rotate: " + nerr.Error()
			return nerr
		}
	}

	// Prune: segments whose records all predate the previous snapshot
	// (the fallback still needs the span above *it*), and snapshots past
	// the kept generations.
	if hadPrev {
		for len(w.segs) > 1 && w.segs[1].seq <= prevSnap+1 {
			os.Remove(w.segs[0].path)
			w.segs = w.segs[1:]
		}
	}
	for len(w.snaps) > snapshotsKept {
		os.Remove(w.snaps[0].path)
		w.snaps = w.snaps[1:]
	}
	return nil
}

// sortedRecords collects every installed record, sorted by key. The
// scan takes pointers, not clones: an installed record is never mutated
// (Save installs a clone, put replaces the pointer, Get and Find clone on
// the way out), so the pointers stay valid after each shard lock is
// released.
func (s *Server) sortedRecords() []*record {
	var recs []*record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			recs = append(recs, rec)
		}
		sh.mu.RUnlock()
	}
	sortByKey(recs)
	return recs
}

// sortByKey orders records by key, for stable snapshot bytes.
func sortByKey(recs []*record) {
	slices.SortFunc(recs, func(a, b *record) int { return strings.Compare(a.entry.Key, b.entry.Key) })
}

// newSegment creates and opens a fresh WAL segment whose first record
// will be seq. Called under jmu (or during single-threaded recovery).
func (w *wal) newSegment(seq uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016x.log", seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return err
	}
	w.f, w.off = f, int64(len(walMagic))
	w.segs = append(w.segs, walFile{seq: seq, path: path})
	return nil
}

// Shutdown writes the clean-shutdown marker, flushes and closes the WAL,
// journals a registry.shutdown audit event, and stops the janitor. The
// next boot sees the marker and skips tail repair.
func (s *Server) Shutdown() error {
	var err error
	closed := false
	s.jmu.Lock()
	w := s.wal
	seq := s.seq
	if w != nil && w.f != nil {
		b := append(w.scratch[:0], 0, 0, 0, 0, 0, 0, 0, 0, recVersion, opWALMarker)
		b = binary.AppendUvarint(b, seq)
		sealFrame(b)
		if _, werr := w.f.Write(b); werr != nil && err == nil {
			err = werr
		}
		if serr := w.f.Sync(); serr == nil {
			w.fsyncs++
			w.dirty = false
		} else if err == nil {
			err = serr
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
		closed = true
	}
	s.jmu.Unlock()
	if closed {
		s.auditEvent(audit.Event{Type: audit.RegistryShutdown,
			Detail: fmt.Sprintf("clean shutdown at seq %d; WAL marked and closed", seq)})
	}
	s.Close()
	return err
}

// CrashClose simulates kill -9 for tests and the fault-injection
// simulation: the WAL file descriptor is closed with no marker and no
// final fsync, exactly the state a killed process leaves behind, then the
// janitor stops. The next open of the same directory takes the recovery
// path.
func (s *Server) CrashClose() {
	s.jmu.Lock()
	if s.wal != nil && s.wal.f != nil {
		s.wal.f.Close()
		s.wal.f = nil
	}
	s.jmu.Unlock()
	s.Close()
}

// Durability reports the registry's persistence state; Enabled is false
// for a purely in-memory registry.
func (s *Server) Durability() DurabilityStats {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	w := s.wal
	if w == nil {
		return DurabilityStats{}
	}
	rec := w.recovery
	return DurabilityStats{
		Enabled:       true,
		Dir:           w.dir,
		Fsync:         string(w.policy),
		SnapshotEvery: w.snapEvery,
		Appends:       w.appends,
		Fsyncs:        w.fsyncs,
		Snapshots:     w.snapshots,
		SnapshotSeq:   w.snapSeq,
		Segments:      len(w.segs),
		WALBytes:      w.off,
		LastError:     w.lastErr,
		Recovery:      &rec,
	}
}

// Recovery returns boot recovery stats (zero value when not durable).
func (s *Server) Recovery() RecoveryStats {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.wal == nil {
		return RecoveryStats{}
	}
	return s.wal.recovery
}

// --- encoding ---

type walRecord struct {
	op      byte
	seq     uint64
	expires time.Time
	entry   Entry
	// epoch and leader are set only for opWALEpoch records.
	epoch  uint64
	leader string
}

func changeOpWAL(op ChangeOp) byte {
	switch op {
	case OpAdd:
		return opWALAdd
	case OpUpdate:
		return opWALUpdate
	case OpDelete:
		return opWALDelete
	default:
		return opWALExpire
	}
}

func walOpChange(op byte) ChangeOp {
	switch op {
	case opWALAdd:
		return OpAdd
	case opWALUpdate:
		return OpUpdate
	case opWALDelete:
		return OpDelete
	default:
		return OpExpire
	}
}

func appendWALString(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendWALRecord appends the framed payload for one mutation.
func appendWALRecord(b []byte, op byte, seq uint64, e Entry, expires time.Time) []byte {
	b = append(b, recVersion, op)
	b = binary.AppendUvarint(b, seq)
	return appendWALEntry(b, e, expires)
}

// appendWALEntry appends one (expiry, entry) group, the encoding WAL
// records and snapshots share: the expiry, then the entry as the binary
// wire encodes it (appendBinEntry).
func appendWALEntry(b []byte, e Entry, expires time.Time) []byte {
	var expMS uint64
	if !expires.IsZero() {
		expMS = uint64(expires.UnixMilli())
	}
	return appendBinEntry(binary.AppendUvarint(b, expMS), &e)
}

type walReader struct {
	b   []byte
	off int
	err error

	src  io.Reader
	left int
}

// openSized opens path for reading and returns its length.
func openSized(path string) (*os.File, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int(st.Size()), nil
}

// reset points the reader at the n bytes src holds, keeping its window.
func (r *walReader) reset(src io.Reader, n int) {
	r.b, r.off, r.err, r.src, r.left = r.b[:0], 0, nil, src, n
}

// rest is how many bytes are left to read.
func (r *walReader) rest() int { return len(r.b) - r.off + r.left }

// fill makes k bytes available at b[r.off:], or every byte left if
// fewer remain.
func (r *walReader) fill(k int) {
	if r.src != nil && len(r.b)-r.off < k {
		r.refill(k)
	}
}

// refill slides the unread bytes to the front of the window, grows it
// when k exceeds its capacity, and reads from src until it is full or
// src is exhausted. A read error fails the reader.
func (r *walReader) refill(k int) {
	if r.left == 0 || r.err != nil {
		return
	}
	n := copy(r.b[:cap(r.b)], r.b[r.off:])
	if k > cap(r.b) {
		r.b = append(make([]byte, 0, k), r.b[:n]...)
	}
	r.b, r.off = r.b[:n], 0
	m, err := io.ReadFull(r.src, r.b[n:n+min(cap(r.b)-n, r.left)])
	r.b, r.left = r.b[:n+m], r.left-m
	if err != nil {
		r.err = err
	}
}

// drain reads and discards every byte left.
func (r *walReader) drain() {
	for r.err == nil && r.rest() > 0 {
		r.off = len(r.b)
		r.fill(cap(r.b))
	}
}

// frame reads the frame at the reader's position, whose payload may be
// at most limit bytes, and returns its payload, valid until the next
// read. A torn or corrupt frame is reported without moving the reader.
func (r *walReader) frame(limit int) ([]byte, error) {
	if r.rest() < 8 {
		return nil, fmt.Errorf("uddi: truncated frame header")
	}
	if r.fill(8); r.err != nil {
		return nil, r.err
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off:]))
	sum := binary.LittleEndian.Uint32(r.b[r.off+4:])
	if n <= 0 || n > limit || 8+n > r.rest() {
		return nil, fmt.Errorf("uddi: frame length %d out of range", n)
	}
	if r.fill(8 + n); r.err != nil {
		return nil, r.err
	}
	payload := r.b[r.off+8 : r.off+8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("uddi: frame CRC mismatch")
	}
	r.off += 8 + n
	return payload, nil
}

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	r.fill(binary.MaxVarintLen64)
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if r.err == nil {
			r.err = fmt.Errorf("uddi: bad uvarint")
		}
		return 0
	}
	r.off += n
	return v
}

// raw reads a length-prefixed string's bytes, valid until the next read.
func (r *walReader) raw() []byte {
	n := int(r.uvarint())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.rest() {
		r.err = fmt.Errorf("uddi: string length %d out of range", n)
		return nil
	}
	if r.fill(n); r.err != nil {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *walReader) str() string { return string(r.raw()) }

// shared reads a string that repeats across entries, returning the
// intern table's copy of it.
func (r *walReader) shared() string { return intern(r.raw()) }

func decodeWALEntry(r *walReader) (Entry, time.Time) {
	expMS := r.uvarint()
	e := decodeBinEntry(r)
	var exp time.Time
	if expMS != 0 {
		exp = time.UnixMilli(int64(expMS))
	}
	return e, exp
}

func decodeWALRecord(payload []byte) (walRecord, error) {
	if len(payload) < 2 {
		return walRecord{}, fmt.Errorf("uddi: short record")
	}
	if payload[0] != recVersion {
		return walRecord{}, fmt.Errorf("uddi: unknown record version %d", payload[0])
	}
	rec := walRecord{op: payload[1]}
	r := &walReader{b: payload, off: 2}
	rec.seq = r.uvarint()
	if rec.op == opWALMarker {
		return rec, r.err
	}
	if rec.op == opWALEpoch {
		rec.epoch = r.uvarint()
		rec.leader = r.str()
		return rec, r.err
	}
	switch rec.op {
	case opWALAdd, opWALUpdate, opWALDelete, opWALExpire:
	default:
		return walRecord{}, fmt.Errorf("uddi: unknown record op %q", rec.op)
	}
	rec.entry, rec.expires = decodeWALEntry(r)
	return rec, r.err
}

// writeSnapshot writes recs, sorted by key, as an atomic snapshot: tmp
// file, fsync, rename, and a best-effort directory sync so the rename
// itself is durable.
func writeSnapshot(path string, seq uint64, recs []*record, epoch uint64, leader string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = streamSnapshot(f, seq, recs, epoch, leader)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// streamSnapshot writes snapMagic and the snapshot frame to f through a
// snapBufSize buffer, one entry group at a time, keeping a running CRC
// and length. The frame header goes out as zeros and is patched in place
// once the payload is written. The replication epoch and leader name
// ride at the payload tail, after the entry groups, so pre-replication
// snapshots (which simply end at the last entry) still load.
func streamSnapshot(f *os.File, seq uint64, recs []*record, epoch uint64, leader string) error {
	bw := bufio.NewWriterSize(f, snapBufSize)
	var sum uint32
	var n int64
	// bufio.Writer errors are sticky: Flush reports the first one.
	emit := func(b []byte) {
		sum = crc32.Update(sum, crc32.IEEETable, b)
		n += int64(len(b))
		bw.Write(b)
	}
	var hdr [8]byte
	bw.WriteString(snapMagic)
	bw.Write(hdr[:])
	b := make([]byte, 0, 4096)
	b = append(b, recVersion)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	emit(b)
	for _, rec := range recs {
		b = appendWALEntry(b[:0], rec.entry, rec.expires)
		emit(b)
	}
	b = binary.AppendUvarint(b[:0], epoch)
	b = appendWALString(b, leader)
	emit(b)
	if err := bw.Flush(); err != nil {
		return err
	}
	if n > math.MaxUint32 {
		return fmt.Errorf("uddi: snapshot payload of %d bytes overflows its length word", n)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	_, err := f.WriteAt(hdr[:], int64(len(snapMagic)))
	return err
}

// loadSnapshot reads and validates one snapshot file, streaming its
// payload through a snapBufSize window under a running CRC; a snapshot
// whose CRC fails returns an error and none of its entries. The
// epoch/leader tail is optional: snapshots written before replication
// end at the last entry group and load with epoch 0.
func loadSnapshot(path string) (entries []Entry, deadlines []time.Time, seq, epoch uint64, leader string, err error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, nil, 0, 0, "", err
	}
	defer f.Close()
	var hdr [len(snapMagic) + 8]byte
	if _, err := io.ReadFull(f, hdr[:min(size, len(hdr))]); err != nil {
		return nil, nil, 0, 0, "", err
	}
	if size < len(snapMagic) || string(hdr[:len(snapMagic)]) != snapMagic {
		return nil, nil, 0, 0, "", fmt.Errorf("uddi: bad snapshot magic")
	}
	if size < len(hdr) {
		return nil, nil, 0, 0, "", fmt.Errorf("uddi: truncated frame header")
	}
	// The one frame must end at end of file: the file's length, not
	// maxWALFrame, bounds it.
	n := int(binary.LittleEndian.Uint32(hdr[len(snapMagic):]))
	sum := binary.LittleEndian.Uint32(hdr[len(snapMagic)+4:])
	if n <= 0 || n != size-len(hdr) {
		return nil, nil, 0, 0, "", fmt.Errorf("uddi: snapshot frame length %d, file holds %d", n, size-len(hdr))
	}
	crc := crc32.NewIEEE()
	r := &walReader{b: make([]byte, 0, snapBufSize)}
	r.reset(io.TeeReader(f, crc), n)
	if v := r.byte(); r.err == nil && v != recVersion {
		return nil, nil, 0, 0, "", fmt.Errorf("uddi: unknown snapshot version %d", v)
	}
	seq = r.uvarint()
	count := r.count()
	if r.err != nil {
		return nil, nil, 0, 0, "", r.err
	}
	entries = make([]Entry, 0, count)
	deadlines = make([]time.Time, 0, count)
	for i := 0; i < count; i++ {
		e, exp := decodeWALEntry(r)
		if r.err != nil {
			return nil, nil, 0, 0, "", r.err
		}
		entries = append(entries, e)
		deadlines = append(deadlines, exp)
	}
	if r.rest() > 0 {
		epoch = r.uvarint()
		leader = r.str()
	}
	if r.drain(); r.err != nil {
		return nil, nil, 0, 0, "", r.err
	}
	if crc.Sum32() != sum {
		return nil, nil, 0, 0, "", fmt.Errorf("uddi: frame CRC mismatch")
	}
	return entries, deadlines, seq, epoch, leader, nil
}

// scanWALDir lists snapshots and WAL segments by their sequence-number
// names, ascending. Stray .tmp files from an interrupted snapshot are
// removed.
func scanWALDir(dir string) (snaps, segs []walFile, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, de := range des {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err == nil {
				segs = append(segs, walFile{seq: seq, path: filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err == nil {
				snaps = append(snaps, walFile{seq: seq, path: filepath.Join(dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return snaps, segs, nil
}
