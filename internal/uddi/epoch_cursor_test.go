// Epoch-aware watch cursor tests: the contract that lets an importer
// cursor taken from one regime keep working against the next. A replica
// parks cursors ahead of its feed instead of resyncing them; a promoted
// leader replays old-epoch cursors from the regime boundary it recorded;
// the strict replication feed — where idempotent redelivery would paper
// over divergence — resyncs instead; and the boundary marks survive a
// durable restart, because the promotion itself rode the WAL.
package uddi

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// TestReplicaHoldsAheadCursor: an importer failing over from a dead
// leader lands on a replica that is one feed interval behind, carrying a
// cursor past the replica's journal. Same-regime, that cursor is simply
// early — the replica parks it until the feed catches up, rather than
// bouncing the importer into a full resync.
func TestReplicaHoldsAheadCursor(t *testing.T) {
	ctx := context.Background()
	s := NewServer()
	defer s.Close()
	s.SetReplicaOf("http://leader/uddi")
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.ApplyReplicated(feedChange(seq, NewKey())); err != nil {
			t.Fatal(err)
		}
	}

	// Non-blocking probe: cursor 5 on a replica at 3 is held, not resynced.
	changes, next, _, resync := s.ChangesEpoch(5, 0, false)
	if resync || len(changes) != 0 || next != 5 {
		t.Fatalf("ahead cursor on replica: %d changes next %d resync %v, want a hold at 5",
			len(changes), next, resync)
	}

	// A parked watcher wakes when the feed delivers past its cursor.
	done := make(chan error, 1)
	go func() {
		changes, next, resync, err := s.WatchChanges(ctx, 5, 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		if resync {
			done <- errors.New("held watcher was resynced when the feed caught up")
			return
		}
		if len(changes) != 1 || next != 6 {
			done <- fmt.Errorf("held watcher got %d changes next %d, want the 1 change past its cursor", len(changes), next)
			return
		}
		done <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher park
	for seq := uint64(4); seq <= 6; seq++ {
		if err := s.ApplyReplicated(feedChange(seq, NewKey())); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held watcher never woke")
	}

	// The same ahead cursor on a LEADER is from a future this node never
	// served: resync.
	s.SetReplicaOf("")
	if _, _, _, resync := s.ChangesEpoch(100, 0, false); !resync {
		t.Fatal("leader served a cursor past its own journal without resync")
	}
}

// TestWatchCursorAcrossPromotion drives the full importer-side story: a
// cursor handed out by the old leader, carried across that leader's death
// and a replica's promotion, keeps working — replayed from the epoch
// boundary, never resynced — on both wire encodings. The strict
// replication feed, asked the same question, answers resync.
func TestWatchCursorAcrossPromotion(t *testing.T) {
	ctx := context.Background()

	// Old regime: leader A at epoch 1 with five acknowledged writes.
	a := NewServer()
	defer a.Close()
	if err := a.SetEpoch(1, "http://a/uddi"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Save(lampEntry(), time.Hour)
	}

	// Replica B mirrored only the first three before A died.
	b := NewServer()
	defer b.Close()
	if err := b.SetEpoch(1, "http://a/uddi"); err != nil {
		t.Fatal(err)
	}
	b.SetReplicaOf("http://a/uddi")
	feed, _, _, _ := a.ChangesEpoch(0, 0, false)
	for _, ch := range feed[:3] {
		if err := b.ApplyReplicated(ch); err != nil {
			t.Fatal(err)
		}
	}

	// The importer's cursor from A: all five changes, epoch 1.
	const importerCursor = 5

	// Before promotion the cursor is merely ahead of B's feed: held.
	if changes, next, _, resync := b.ChangesEpoch(importerCursor, 1, false); resync || len(changes) != 0 || next != importerCursor {
		t.Fatalf("pre-promotion: %d changes next %d resync %v, want a hold", len(changes), next, resync)
	}

	// B promotes at its replicated position 3 and the new regime moves on:
	// seqs 4 and 5 now name different records than A's 4 and 5 did.
	if err := b.SetEpoch(2, "http://b/uddi"); err != nil {
		t.Fatal(err)
	}
	b.SetReplicaOf("")
	newKeys := []string{
		b.Save(lampEntry(), time.Hour),
		b.Save(lampEntry(), time.Hour),
	}

	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &Client{URL: srv.URL}

	t.Run("xml importer replays from the boundary", func(t *testing.T) {
		changes, next, nextEpoch, resync, err := c.WatchEpoch(ctx, importerCursor, 1, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if resync {
			t.Fatal("old-epoch cursor was resynced, want boundary replay")
		}
		if nextEpoch != 2 {
			t.Fatalf("nextEpoch = %d, want the new regime's 2", nextEpoch)
		}
		// The boundary was 3, so the replay is exactly the new regime's
		// tail — idempotent redelivery territory for the importer.
		if len(changes) != 2 || next != 5 {
			t.Fatalf("replay = %d changes next %d, want the 2 new-regime changes to 5", len(changes), next)
		}
		for i, ch := range changes {
			if ch.Entry.Key != newKeys[i] {
				t.Fatalf("replayed change %d is %q, want the new regime's %q", i, ch.Entry.Key, newKeys[i])
			}
		}
		// Once re-grounded on (5, epoch 2) the importer watches normally.
		changes, next, nextEpoch, resync, err = c.WatchEpoch(ctx, next, nextEpoch, time.Millisecond)
		if err != nil || resync || len(changes) != 0 || next != 5 || nextEpoch != 2 {
			t.Fatalf("re-grounded watch: %d changes next %d epoch %d resync %v err %v",
				len(changes), next, nextEpoch, resync, err)
		}
	})

	t.Run("binary importer replays identically", func(t *testing.T) {
		resp := binServe(b, Face{}, "home-a", encodeBinWatch(importerCursor, 1, time.Millisecond))
		changes, next, nextEpoch, resync, err := decodeBinChanges(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resync || len(changes) != 2 || next != 5 || nextEpoch != 2 {
			t.Fatalf("binary replay: %d changes next %d epoch %d resync %v",
				len(changes), next, nextEpoch, resync)
		}
	})

	t.Run("strict replication feed resyncs the diverged cursor", func(t *testing.T) {
		// A replica of A's regime at position 5 holds records B's history
		// does not share. Redelivery would be silently skipped as
		// duplicates, so the feed must force a state transfer instead.
		rc, err := c.ReplWatch(ctx, importerCursor, 1, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Resync {
			t.Fatal("strict feed served a diverged old-epoch cursor without resync")
		}
		// A cursor at or before the boundary shares all its history with
		// the new regime: the feed serves it straight through.
		rc, err = c.ReplWatch(ctx, 2, 1, time.Millisecond)
		if err != nil || rc.Resync {
			t.Fatalf("undiverged old-epoch feed: resync %v err %v", rc.Resync, err)
		}
		if len(rc.Changes) != 3 || rc.Next != 5 || rc.Epoch != 2 {
			t.Fatalf("undiverged feed = %d changes next %d epoch %d, want the shared+new tail to 5",
				len(rc.Changes), rc.Next, rc.Epoch)
		}
	})

	t.Run("re-ground clears the boundary marks", func(t *testing.T) {
		// A state transfer breaks journal continuity: after it, no old-
		// epoch cursor can be safely replayed — only resynced.
		r := NewServer()
		defer r.Close()
		if _, err := pullPages(func(after string) (Page, error) { return c.Page(ctx, after, 0) }, r); err != nil {
			t.Fatal(err)
		}
		if _, _, _, resync := r.ChangesEpoch(2, 1, false); !resync {
			t.Fatal("re-grounded server replayed an old-epoch cursor it has no boundary for")
		}
	})
}

// TestEpochMarksSurviveRestart: a promotion is a WAL event, so the
// regime boundary it defines must survive a restart — an importer that
// kept an old-epoch cursor across the promoted leader's reboot still
// gets boundary replay, not a resync.
func TestEpochMarksSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		// Snapshots disabled: the journal must rebuild from seq 1 so the
		// replay floor does not hide what this test measures.
		s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := s.SetEpoch(1, "http://a/uddi"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Save(lampEntry(), time.Hour)
	}
	// Promotion at seq 3, then the new regime writes two more.
	if err := s.SetEpoch(2, "http://b/uddi"); err != nil {
		t.Fatal(err)
	}
	s.Save(lampEntry(), time.Hour)
	s.Save(lampEntry(), time.Hour)
	s.Close()

	s = open()
	defer s.Close()
	if epoch, leader := s.Epoch(); epoch != 2 || leader != "http://b/uddi" {
		t.Fatalf("recovered regime = %d %q, want 2 http://b/uddi", epoch, leader)
	}
	// An epoch-1 cursor at 5 crossed the recovered boundary at 3: replay
	// the new regime's tail, exactly as before the restart.
	changes, next, nextEpoch, resync := s.ChangesEpoch(5, 1, false)
	if resync {
		t.Fatal("restart lost the epoch boundary: old-epoch cursor resynced")
	}
	if len(changes) != 2 || next != 5 || nextEpoch != 2 {
		t.Fatalf("recovered replay = %d changes next %d epoch %d, want 2 changes to 5 under epoch 2",
			len(changes), next, nextEpoch)
	}
	// The strict feed still refuses it.
	if _, _, _, resync := s.ChangesEpoch(5, 1, true); !resync {
		t.Fatal("strict feed served a diverged cursor after restart")
	}
}
