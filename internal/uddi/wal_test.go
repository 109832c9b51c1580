// Crash-recovery tests for the durable registry: round-trips through
// kill -9-shaped restarts, table-driven WAL corruption, snapshot/WAL
// overlap, lease re-arming, and the monotone-sequence contract that lets
// watchers resume without resync.
package uddi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func durableServer(t *testing.T, dir string, opts DurabilityOptions) *Server {
	t.Helper()
	opts.Dir = dir
	if opts.Fsync == "" {
		opts.Fsync = FsyncOff
	}
	s, err := NewManualDurableServer(opts)
	if err != nil {
		t.Fatalf("NewManualDurableServer: %v", err)
	}
	return s
}

func entryNamed(name string) Entry {
	return Entry{
		Name:        name,
		Description: "durable test service",
		AccessPoint: "http://gw.example/" + name,
		TModel:      "tmodel:test",
		Categories:  map[string]string{"room": "den", "kind": "test"},
	}
}

// TestDurableRoundTrip: registrations written before a crash-close are
// all served after reopening the same directory, with the sequence
// number preserved and payloads intact.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{})
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = s.Save(entryNamed("svc-"+string(rune('a'+i))), time.Hour)
	}
	s.Delete(keys[3])
	preSeq := s.Seq()
	s.CrashClose()

	s2 := durableServer(t, dir, DurabilityOptions{})
	defer s2.Close()
	if got := s2.Seq(); got != preSeq {
		t.Fatalf("seq after restart = %d, want %d", got, preSeq)
	}
	if got := s2.Len(); got != 9 {
		t.Fatalf("Len after restart = %d, want 9", got)
	}
	e, ok := s2.Get(keys[0])
	if !ok {
		t.Fatal("entry missing after restart")
	}
	if e.AccessPoint != "http://gw.example/svc-a" || e.Categories["room"] != "den" {
		t.Fatalf("entry payload mangled after restart: %+v", e)
	}
	if _, ok := s2.Get(keys[3]); ok {
		t.Fatal("deleted entry resurrected by restart")
	}
	rec := s2.Recovery()
	if rec.CleanShutdown {
		t.Fatal("crash close reported as clean shutdown")
	}
	if rec.Replayed == 0 {
		t.Fatal("no WAL records replayed")
	}
}

// TestCleanShutdownMarker: Shutdown writes the marker, so the next boot
// reports a clean shutdown and no tail repair; a new registration after
// the restart continues the sequence monotonically.
func TestCleanShutdownMarker(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{})
	s.Save(entryNamed("one"), time.Hour)
	s.Save(entryNamed("two"), time.Hour)
	preSeq := s.Seq()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2 := durableServer(t, dir, DurabilityOptions{})
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.CleanShutdown {
		t.Fatal("marked shutdown not detected as clean")
	}
	if rec.TornTail {
		t.Fatal("clean shutdown reported torn tail")
	}
	if s2.Seq() != preSeq {
		t.Fatalf("seq = %d, want %d", s2.Seq(), preSeq)
	}
	s2.Save(entryNamed("three"), time.Hour)
	if s2.Seq() != preSeq+1 {
		t.Fatalf("post-restart seq = %d, want %d", s2.Seq(), preSeq+1)
	}
}

// corruptWAL is one entry in the corruption table: mutate the (single)
// WAL segment on disk, then say what recovery must report.
type corruptWAL struct {
	name string
	// mutate damages the segment bytes; returns the bytes to write back.
	mutate func(t *testing.T, data []byte) []byte
	// wantEntries after recovery (10 were saved, each ~frame).
	wantEntries  func(got int) bool
	wantTornTail bool
}

// TestWALCorruptionTable: torn final frame, bit-flipped mid-file record,
// and a truncated header all truncate at the last valid frame instead of
// failing the boot.
func TestWALCorruptionTable(t *testing.T) {
	cases := []corruptWAL{
		{
			// The final frame loses its last 3 bytes, as a power cut
			// mid-write would leave it.
			name: "torn final frame",
			mutate: func(t *testing.T, data []byte) []byte {
				return data[:len(data)-3]
			},
			wantEntries:  func(got int) bool { return got == 9 },
			wantTornTail: true,
		},
		{
			// A bit flips in the middle of the file: everything from that
			// record on is untrustworthy and must be dropped.
			name: "bit flip mid-file",
			mutate: func(t *testing.T, data []byte) []byte {
				data[len(data)/2] ^= 0x40
				return data
			},
			wantEntries:  func(got int) bool { return got >= 1 && got <= 9 },
			wantTornTail: true,
		},
		{
			// Only half a frame header survives.
			name: "truncated header",
			mutate: func(t *testing.T, data []byte) []byte {
				return data[:len(walMagic)+4]
			},
			wantEntries:  func(got int) bool { return got == 0 },
			wantTornTail: true,
		},
		{
			name:         "intact",
			mutate:       func(t *testing.T, data []byte) []byte { return data },
			wantEntries:  func(got int) bool { return got == 10 },
			wantTornTail: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := durableServer(t, dir, DurabilityOptions{})
			for i := 0; i < 10; i++ {
				s.Save(entryNamed("svc-"+string(rune('a'+i))), time.Hour)
			}
			s.CrashClose()

			seg := walSegments(t, dir)
			if len(seg) != 1 {
				t.Fatalf("segments = %d, want 1", len(seg))
			}
			data, err := os.ReadFile(seg[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg[0], tc.mutate(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := durableServer(t, dir, DurabilityOptions{})
			defer s2.Close()
			rec := s2.Recovery()
			if rec.TornTail != tc.wantTornTail {
				t.Fatalf("TornTail = %v, want %v (%+v)", rec.TornTail, tc.wantTornTail, rec)
			}
			if got := s2.Len(); !tc.wantEntries(got) {
				t.Fatalf("entries after recovery = %d (%+v)", got, rec)
			}
			// Whatever survived must still accept writes: the truncated
			// tail is writable again.
			s2.Save(entryNamed("after"), time.Hour)
			if _, ok := findByName(s2, "after"); !ok {
				t.Fatal("post-recovery write lost")
			}
		})
	}
}

// TestSnapshotWALOverlap: records at and below the snapshot seq also
// present in the WAL must not double-apply, and the fuzzy span above the
// snapshot must replay idempotently.
func TestSnapshotWALOverlap(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{})
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = s.Save(entryNamed("svc-"+string(rune('a'+i))), time.Hour)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Post-snapshot churn: an update, a delete, a fresh add.
	e, _ := s.Get(keys[0])
	e.Description = "post-snapshot update"
	s.Save(e, time.Hour)
	s.Delete(keys[1])
	s.Save(entryNamed("late"), time.Hour)
	preSeq := s.Seq()
	s.CrashClose()

	// Force the overlap: re-copy the pre-rotation segment's records by
	// restarting twice (the second boot replays snapshot + tail again).
	for round := 0; round < 2; round++ {
		s2 := durableServer(t, dir, DurabilityOptions{})
		if got := s2.Seq(); got != preSeq {
			t.Fatalf("round %d: seq = %d, want %d", round, got, preSeq)
		}
		if got := s2.Len(); got != 6 {
			t.Fatalf("round %d: Len = %d, want 6", round, got)
		}
		if e, ok := s2.Get(keys[0]); !ok || e.Description != "post-snapshot update" {
			t.Fatalf("round %d: update not replayed over snapshot: %+v", round, e)
		}
		if _, ok := s2.Get(keys[1]); ok {
			t.Fatalf("round %d: delete not replayed over snapshot", round)
		}
		rec := s2.Recovery()
		if rec.SnapshotSeq == 0 {
			t.Fatalf("round %d: snapshot not used: %+v", round, rec)
		}
		s2.CrashClose()
	}
}

// TestSnapshotFallback: a corrupt newest snapshot falls back to the
// previous generation plus a longer WAL replay.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{})
	for i := 0; i < 4; i++ {
		s.Save(entryNamed("gen1-"+string(rune('a'+i))), time.Hour)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Save(entryNamed("gen2-"+string(rune('a'+i))), time.Hour)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	preSeq := s.Seq()
	s.CrashClose()

	snaps := snapFiles(t, dir)
	if len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %d, want 2", len(snaps))
	}
	// Flip a byte inside the newest snapshot's frame.
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, DurabilityOptions{})
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.SnapshotFallback {
		t.Fatalf("fallback not reported: %+v", rec)
	}
	if s2.Seq() != preSeq || s2.Len() != 8 {
		t.Fatalf("state after fallback: seq=%d len=%d, want %d/8", s2.Seq(), s2.Len(), preSeq)
	}
}

// TestExpiryRearmAcrossRestart: a lease's remaining lifetime survives the
// restart — the deadline is the persisted absolute time, not TTL-from-boot
// — and a lease that lapsed while the process was down is expired (and
// journaled) by the first sweep.
func TestExpiryRearmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	s := durableServer(t, dir, DurabilityOptions{Clock: clk.now})
	longKey := s.Save(entryNamed("long-lease"), time.Hour)
	s.Save(entryNamed("short-lease"), time.Minute)
	s.CrashClose()

	// Down for 10 minutes: the short lease lapses, the long one has 50
	// minutes left.
	clk.advance(10 * time.Minute)
	s2 := durableServer(t, dir, DurabilityOptions{Clock: clk.now})
	defer s2.Close()
	if s2.Recovery().LapsedAtBoot != 1 {
		t.Fatalf("LapsedAtBoot = %d, want 1: %+v", s2.Recovery().LapsedAtBoot, s2.Recovery())
	}
	seqBefore := s2.Seq()
	s2.Sweep()
	if _, ok := findByName(s2, "short-lease"); ok {
		t.Fatal("lapsed lease survived the first sweep")
	}
	changes, _, resync := s2.Changes(seqBefore)
	if resync || len(changes) != 1 || changes[0].Op != OpExpire {
		t.Fatalf("lapsed lease not journaled as expiry: %+v (resync=%v)", changes, resync)
	}
	// 49 more minutes: the long lease is still inside its original hour.
	clk.advance(49 * time.Minute)
	s2.Sweep()
	if _, ok := s2.Get(longKey); !ok {
		t.Fatal("long lease expired early: deadline not re-armed with remaining lifetime")
	}
	// Past the hour: it lapses on schedule.
	clk.advance(2 * time.Minute)
	s2.Sweep()
	if _, ok := s2.Get(longKey); ok {
		t.Fatal("long lease survived past its persisted deadline")
	}
}

// TestWatcherResumeWithoutResync: a watcher cursor taken before a crash
// stays valid after the restart — Changes(since) serves the tail without
// demanding a resync, because recovery refills the journal ring. A cursor
// from before the snapshot horizon still (correctly) resyncs.
func TestWatcherResumeWithoutResync(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{})
	for i := 0; i < 5; i++ {
		s.Save(entryNamed("pre-"+string(rune('a'+i))), time.Hour)
	}
	cursor := s.Seq() // watcher is caught up here
	for i := 0; i < 3; i++ {
		s.Save(entryNamed("unseen-"+string(rune('a'+i))), time.Hour)
	}
	s.CrashClose()

	s2 := durableServer(t, dir, DurabilityOptions{})
	defer s2.Close()
	changes, next, resync := s2.Changes(cursor)
	if resync {
		t.Fatal("watcher forced into resync after restart")
	}
	if len(changes) != 3 {
		t.Fatalf("resumed changes = %d, want 3", len(changes))
	}
	for i, c := range changes {
		if c.Seq != cursor+uint64(i+1) {
			t.Fatalf("change %d seq = %d, want %d", i, c.Seq, cursor+uint64(i+1))
		}
		if c.Op != OpAdd || !strings.HasPrefix(c.Entry.Name, "unseen-") {
			t.Fatalf("resumed change %d wrong: %+v", i, c)
		}
	}
	if next != s2.Seq() {
		t.Fatalf("next = %d, want %d", next, s2.Seq())
	}

	// After a snapshot + restart, a cursor below the snapshot horizon is
	// beyond what the ring can reconstruct: resync is the right answer.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s2.Save(entryNamed("post-snap"), time.Hour)
	s2.CrashClose()
	s3 := durableServer(t, dir, DurabilityOptions{})
	defer s3.Close()
	if _, _, resync := s3.Changes(1); !resync {
		t.Fatal("cursor below the snapshot horizon must resync")
	}
	if _, _, resync := s3.Changes(s3.Seq() - 1); resync {
		t.Fatal("cursor above the snapshot horizon must not resync")
	}
}

// TestSnapshotPrunesSegments: snapshots rotate the WAL and prune segments
// older than the fallback generation needs, so the directory doesn't grow
// without bound.
func TestSnapshotPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: 8})
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Save(entryNamed("churn"), time.Hour)
		s.Sweep() // drives the SnapshotEvery trigger deterministically
	}
	segs := walSegments(t, dir)
	if len(segs) > 3 {
		t.Fatalf("segments not pruned: %d on disk", len(segs))
	}
	if snaps := snapFiles(t, dir); len(snaps) > snapshotsKept {
		t.Fatalf("snapshots not pruned: %d on disk", len(snaps))
	}
	d := s.Durability()
	if d.Snapshots == 0 || d.SnapshotSeq == 0 {
		t.Fatalf("snapshot trigger never fired: %+v", d)
	}
}

// TestRepeatedSnapshotKeepsFiles: snapshots forced with nothing journaled
// in between leave the newest snapshot and the active segment on disk,
// so later writes still survive a restart.
func TestRepeatedSnapshotKeepsFiles(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	s.Save(entryNamed("before"), time.Hour)
	for i := 0; i < 3; i++ {
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	s.Save(entryNamed("after"), time.Hour)
	s.CrashClose()
	if len(snapFiles(t, dir)) == 0 || len(walSegments(t, dir)) == 0 {
		t.Fatalf("snapshots %v, segments %v: live files deleted", snapFiles(t, dir), walSegments(t, dir))
	}
	s2 := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("recovered %d of 2 entries (%+v)", s2.Len(), s2.Recovery())
	}
}

// TestSnapshotDuringWrites: snapshots scan record pointers outside the
// shard locks while saves replace those records; every write still
// survives a restart.
func TestSnapshotDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.Save(deviceEntry(i%300), time.Hour)
		}
	}()
	for i := 0; i < 5; i++ {
		if err := s.Snapshot(); err != nil {
			t.Error(err)
		}
	}
	<-done
	want := s.Len()
	s.CrashClose()
	s2 := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	defer s2.Close()
	if got := s2.Len(); got != want || got != 300 {
		t.Fatalf("recovered %d entries, want %d (%+v)", got, want, s2.Recovery())
	}
}

// TestSnapshotOverFrameBound: a registry whose snapshot outgrows the
// 4 MiB WAL frame bound still recovers whole. 4096 device entries make a
// ~5 MB snapshot; once the segments under both kept generations are
// pruned, rejecting those snapshots would lose most of the registry.
func TestSnapshotOverFrameBound(t *testing.T) {
	const devices = 4096
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: 1024})
	for round := 0; round < 3; round++ {
		for i := 0; i < devices; i++ {
			s.Save(deviceEntry(i), time.Hour)
			s.Sweep()
		}
	}
	preSeq := s.Seq()
	s.CrashClose()
	snaps := snapFiles(t, dir)
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	if st, err := os.Stat(snaps[len(snaps)-1]); err != nil || st.Size() <= maxWALFrame {
		t.Fatalf("newest snapshot %v (err %v), want one over the %d-byte frame bound", st.Size(), err, maxWALFrame)
	}

	s2 := durableServer(t, dir, DurabilityOptions{SnapshotEvery: 1024})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotFallback || rec.SnapshotSeq == 0 {
		t.Fatalf("newest snapshot not loaded: %+v", rec)
	}
	if s2.Len() != devices || s2.Seq() != preSeq {
		t.Fatalf("recovered %d of %d entries at seq %d, want seq %d (%+v)", s2.Len(), devices, s2.Seq(), preSeq, rec)
	}
}

// TestWALDecodersRejectAbsurdCounts: a CRC-valid WAL record or snapshot
// that declares far more categories or entries than its bytes can hold
// fails to decode, without sizing a map or slice for the declared count.
func TestWALDecodersRejectAbsurdCounts(t *testing.T) {
	const absurd = 1 << 20
	// A WAL add record: seq 1, expiry 0, six empty strings, then the
	// category count.
	record := binary.AppendUvarint([]byte{recVersion, opWALAdd, 1, 0, 0, 0, 0, 0, 0, 0}, absurd)
	// A snapshot payload: seq 1, then the entry count.
	payload := binary.AppendUvarint([]byte{recVersion, 1}, absurd)
	snap := filepath.Join(t.TempDir(), "snap-0000000000000001.snap")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(snap, append(append([]byte(snapMagic), frame...), payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, werr := decodeWALRecord(record)
	_, _, _, _, _, serr := loadSnapshot(snap)
	runtime.ReadMemStats(&after)
	if werr == nil {
		t.Error("WAL record with an absurd category count decoded")
	}
	if serr == nil {
		t.Error("snapshot with an absurd entry count loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting absurd counts allocated %d bytes", grew)
	}
}

// TestInMemoryUnaffected: a plain in-memory registry reports durability
// disabled and has no WAL hooks in its mutation path.
func TestInMemoryUnaffected(t *testing.T) {
	s := NewManualServer()
	defer s.Close()
	s.Save(entryNamed("x"), time.Hour)
	if d := s.Durability(); d.Enabled {
		t.Fatalf("in-memory registry claims durability: %+v", d)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("in-memory Shutdown: %v", err)
	}
}

func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func findByName(s *Server, name string) (Entry, bool) {
	for _, e := range s.Find(Query{Name: name}) {
		return e, true
	}
	return Entry{}, false
}

// TestExpirySweepDeterministic: one scripted durable registry, run
// twice with a fixed clock and fixed keys, writes byte-identical WAL
// files even when one sweep expires several entries of one shard. The
// sweep journals a shard's expiries in key order, not map order.
func TestExpirySweepDeterministic(t *testing.T) {
	// Eight keys that share one index shard.
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		k := "uuid:lapse-" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if shardIndex(k) == 5 {
			keys = append(keys, k)
		}
	}
	run := func() []byte {
		dir := t.TempDir()
		now := goldenNow
		s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1, Clock: func() time.Time { return now }})
		for i, k := range keys {
			e := entryNamed(k)
			e.Key = k
			ttl := time.Second
			if i%4 == 0 {
				ttl = time.Hour // a survivor between the lapsed ones
			}
			s.Save(e, ttl)
		}
		now = now.Add(time.Minute)
		s.Sweep()
		if n := s.Len(); n != 2 {
			t.Fatalf("%d entries survive the sweep, want 2", n)
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, seg := range walSegments(t, dir) {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("run %d wrote different WAL bytes than the first (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
}
