// Group-append invariants: a batch (SaveAll, or one replica feed round)
// is journaled, written and announced as one — one wake, one WAL write,
// one fsync under FsyncAlways — and a torn batch recovers a prefix of
// itself. No reader sees a batch entry before its frame is written.
package uddi

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func deviceBatch(from, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = deviceEntry(from + i)
	}
	return es
}

// TestWatcherGetsWholeSaveAll: a watcher parked on the journal is woken
// once for a SaveAll; its round carries the first byte-bounded batch of
// it, and rounds resumed from each cursor without waiting carry the
// rest, in order.
func TestWatcherGetsWholeSaveAll(t *testing.T) {
	s := NewManualServer()
	defer s.Close()
	s.Save(entryNamed("before"), time.Hour)
	since := s.Seq()
	done := make(chan []Change, 1)
	go func() {
		chs, _, _, err := s.WatchChanges(context.Background(), since, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- chs
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher park
	s.SaveAll(deviceBatch(0, 256), time.Hour)
	select {
	case chs := <-done:
		if len(chs) == 0 || len(chs) != batchLen(pageBytes, chs) {
			t.Fatalf("woken round carried %d changes, want one non-empty batch", len(chs))
		}
		for cursor := chs[len(chs)-1].Seq; len(chs) < 256; {
			more, next, _, err := s.WatchChanges(context.Background(), cursor, 0)
			if err != nil || len(more) == 0 {
				t.Fatalf("after %d changes: round of %d, err %v", len(chs), len(more), err)
			}
			chs, cursor = append(chs, more...), next
		}
		if len(chs) != 256 {
			t.Fatalf("rounds carried %d changes, want the whole batch of 256", len(chs))
		}
		for i, c := range chs {
			if c.Seq != since+uint64(i)+1 || c.Entry.Key != deviceEntry(i).Key {
				t.Fatalf("change %d is seq %d key %q, want seq %d key %q", i, c.Seq, c.Entry.Key, since+uint64(i)+1, deviceEntry(i).Key)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}
}

// TestFsyncPerBatch: under FsyncAlways a SaveAll costs one fsync, and
// each replica feed round (one byte-bounded batch of the leader's
// journal) one more on the replica, whatever their size.
func TestFsyncPerBatch(t *testing.T) {
	leader := durableServer(t, t.TempDir(), DurabilityOptions{Fsync: FsyncAlways, SnapshotEvery: -1})
	defer leader.Close()
	replica := durableServer(t, t.TempDir(), DurabilityOptions{Fsync: FsyncAlways, SnapshotEvery: -1})
	defer replica.Close()
	replica.SetReplicaOf("http://leader.invalid/uddi")

	var cursor uint64
	for round, n := range []int{1, 64, 256} {
		before := leader.Durability()
		leader.SaveAll(deviceBatch(round*1000, n), time.Hour)
		after := leader.Durability()
		if got := after.Fsyncs - before.Fsyncs; got != 1 {
			t.Errorf("SaveAll of %d: %d fsyncs, want 1", n, got)
		}
		if got := after.Appends - before.Appends; got != uint64(n) {
			t.Errorf("SaveAll of %d: %d records appended", n, got)
		}

		for replica.Seq() < leader.Seq() {
			feed, next, _ := leader.Changes(cursor)
			if len(feed) == 0 {
				t.Fatalf("empty feed round at %d, leader at %d", cursor, leader.Seq())
			}
			cursor = next
			rb := replica.Durability()
			if err := replica.ApplyReplicated(feed...); err != nil {
				t.Fatal(err)
			}
			ra := replica.Durability()
			if got := ra.Fsyncs - rb.Fsyncs; got != 1 {
				t.Errorf("feed round of %d: %d fsyncs, want 1", len(feed), got)
			}
		}
		if replica.Seq() != leader.Seq() {
			t.Fatalf("replica at seq %d, leader at %d", replica.Seq(), leader.Seq())
		}
	}
	// A round of nothing but redelivered changes writes and syncs nothing.
	feed, _, _ := leader.Changes(0)
	rb := replica.Durability()
	if err := replica.ApplyReplicated(feed...); err != nil {
		t.Fatal(err)
	}
	if ra := replica.Durability(); ra.Fsyncs != rb.Fsyncs || ra.Appends != rb.Appends {
		t.Errorf("redelivered round: fsyncs %d → %d, appends %d → %d", rb.Fsyncs, ra.Fsyncs, rb.Appends, ra.Appends)
	}
}

// TestTornBatchRecoversPrefix: a data directory whose last batch write
// was torn anywhere inside it recovers the batches before it and a
// prefix of it, in seq order.
func TestTornBatchRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	s.SaveAll(deviceBatch(0, 3), time.Hour)
	head := s.Durability().WALBytes
	s.SaveAll(deviceBatch(3, 4), time.Hour)
	s.CrashClose()
	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d WAL segments, want 1", len(segs))
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	frameEnds := frameOffsets(t, whole)
	for cut := int(head); cut < len(whole); cut += 37 {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := durableServer(t, cdir, DurabilityOptions{SnapshotEvery: -1})
		kept := 0
		for _, end := range frameEnds {
			if end <= cut {
				kept++
			}
		}
		if r.Seq() != uint64(kept) || r.Len() != kept {
			t.Fatalf("cut at %d: recovered seq %d, %d entries; want the %d whole frames", cut, r.Seq(), r.Len(), kept)
		}
		chs, _, _ := r.Changes(0)
		for i, c := range chs {
			if c.Seq != uint64(i+1) || c.Entry.Key != deviceEntry(i).Key {
				t.Fatalf("cut at %d: change %d is seq %d key %q", cut, i, c.Seq, c.Entry.Key)
			}
		}
		r.CrashClose()
	}
}

// frameOffsets returns the end offset of every frame in a WAL segment.
func frameOffsets(t *testing.T, seg []byte) []int {
	t.Helper()
	r := &walReader{b: seg, off: len(walMagic)}
	var ends []int
	for r.rest() > 0 {
		if _, err := r.frame(maxWALFrame); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, r.off)
	}
	return ends
}

// diskSeq is the highest seq a live data directory's WAL holds in whole
// frames: what a kill -9 at this instant would recover.
func diskSeq(t *testing.T, dir string) uint64 {
	t.Helper()
	var top uint64
	for _, path := range walSegments(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			return 0
		}
		r := &walReader{b: data, off: len(walMagic)}
		for r.rest() > 0 {
			payload, err := r.frame(maxWALFrame)
			if err != nil {
				break // a frame still being written
			}
			if rec, err := decodeWALRecord(payload); err == nil && rec.seq > top {
				top = rec.seq
			}
		}
	}
	return top
}

// TestBatchVisibilityAfterWrite: under concurrent Save, SaveAll, Delete,
// Find and Watch over overlapping keys, no watch reply carries a seq the
// WAL does not hold yet, and reopening the directory recovers every seq
// any reply carried, with the same entries.
func TestBatchVisibilityAfterWrite(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	const keys = 24
	ctx, cancel := context.WithCancel(context.Background())
	var writers, watchers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				switch (w + i) % 4 {
				case 0:
					s.SaveAll(deviceBatch((w*7+i)%keys, 5), time.Hour)
				case 1:
					s.Save(deviceEntry((w+i*3)%keys), time.Hour)
				case 2:
					s.Delete(deviceEntry((w*5 + i) % keys).Key)
				default:
					s.Find(Query{Categories: map[string]string{"homeconnect.middleware": fmt.Sprintf("dev%d", i%8)}})
				}
			}
		}(w)
	}
	var mu sync.Mutex
	var seen uint64
	for w := 0; w < 2; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			var since uint64
			for ctx.Err() == nil {
				chs, next, _, err := s.WatchChanges(ctx, since, 50*time.Millisecond)
				if err != nil {
					return
				}
				if n := len(chs); n > 0 {
					top := chs[n-1].Seq
					if disk := diskSeq(t, dir); top > disk {
						t.Errorf("watch reply carried seq %d; the WAL holds up to %d", top, disk)
					}
					mu.Lock()
					seen = max(seen, top)
					mu.Unlock()
				}
				since = next
			}
		}()
	}
	writers.Wait()
	time.Sleep(20 * time.Millisecond) // let the watchers drain the tail
	cancel()
	watchers.Wait()
	want := fmt.Sprint(s.Find(Query{}))
	s.CrashClose()

	r := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	defer r.Close()
	if r.Seq() < seen {
		t.Fatalf("reopened at seq %d, below the seq %d a watcher was shown", r.Seq(), seen)
	}
	if got := fmt.Sprint(r.Find(Query{})); got != want {
		t.Fatalf("reopened registry differs from the live one:\n got %s\nwant %s", got, want)
	}
}
