// Reconnect/resync edge cases the neighborhood harness exposed as
// untested: watch deltas queued before a snapshot reconcile arriving
// after it (cursor regression), and anti-entropy refreshes racing an
// unpeer. Everything here runs on an in-memory network under a virtual
// clock — no sockets, no sleeps, no background goroutines.
package peer

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// memFixture is two homes on one in-memory network: exporter B serving
// a manual registry, importer A replicating over a manual link.
type memFixture struct {
	clock *vclock.Virtual
	net   *transport.MemNet
	regA  *uddi.Server
	regB  *uddi.Server
	srvB  *vsr.Server
	link  *Link
	pA    *Peering
}

func newMemFixture(t *testing.T) *memFixture {
	t.Helper()
	clock := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	net := transport.NewMemNet()

	newHome := func(name string) (*uddi.Server, *vsr.Server, *Peering) {
		reg := uddi.NewManualServer()
		reg.SetClock(clock.Now)
		srv := vsr.NewDetachedServer(name, reg, nil)
		t.Cleanup(srv.Close)
		p, err := New(name, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		p.SetClock(clock)
		p.SetTransport(net)
		srv.MountPeer(p.ExportView)
		net.Handle(name, srv.Handler())
		return reg, srv, p
	}

	regA, _, pA := newHome("home-a")
	regB, srvB, _ := newHome("home-b")

	link, err := pA.PeerManual("http://home-b/peer")
	if err != nil {
		t.Fatal(err)
	}
	return &memFixture{clock: clock, net: net, regA: regA, regB: regB, srvB: srvB, link: link, pA: pA}
}

// export registers a service in B's registry, as B's own gateway would.
func (f *memFixture) export(t *testing.T, id string) {
	t.Helper()
	entry, err := vsr.EntryFor(testDesc(id), "http://home-b/soap")
	if err != nil {
		t.Fatal(err)
	}
	f.regB.Save(entry, time.Hour)
}

// imported reports whether A's registry holds the scoped copy of B's id.
func (f *memFixture) imported(t *testing.T, id string) bool {
	t.Helper()
	_, ok := f.regA.Get("uuid:svc-home-b/" + id)
	return ok
}

func TestManualLinkPullReplicates(t *testing.T) {
	f := newMemFixture(t)
	f.export(t, "jini:laserdisc-1")
	if err := f.link.Pull(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	st := f.link.Status()
	if !st.Connected || st.RemoteHome != "home-b" {
		t.Fatalf("status after pull: %+v", st)
	}
	if !f.imported(t, "jini:laserdisc-1") {
		t.Fatal("service not imported after pull")
	}
	if st.Cursor == 0 {
		t.Fatal("cursor not advanced by pull")
	}
	if !st.LastSync.Equal(f.clock.Now()) {
		t.Fatalf("LastSync = %v, want virtual now %v", st.LastSync, f.clock.Now())
	}
}

// TestStaleDeltasAfterReconcile drives the race a link is exposed to:
// a watch round fetched before a snapshot reconcile delivers deltas the
// snapshot has already covered. Replaying them must neither regress the
// cursor nor undo snapshot state — the historical failure was a stale
// delete dropping an entry the snapshot had just re-imported. The stale
// round is scripted: after the first pull, the exporter answers the next
// watch round with a single delta placed relative to the cursor c.
func TestStaleDeltasAfterReconcile(t *testing.T) {
	const svc = "jini:laserdisc-1"
	// round renders a watch answer carrying one identity-only journal
	// record, as the exporter would have served it when its journal
	// stood at seq.
	round := func(op string, seq uint64) string {
		return fmt.Sprintf(`<changeList next="%d" resync="false" epoch="0">`+
			`<change seq="%d" op="%s" serviceKey="uuid:svc-%s" name="%s"/></changeList>`,
			seq, seq, op, svc, svc)
	}
	cases := []struct {
		name string
		// round built against the post-reconcile cursor c.
		round        func(c uint64) string
		wantImported bool
		wantCursorAt func(c uint64) uint64
		wantApplied  uint64
	}{
		{
			name:         "stale delete is skipped",
			round:        func(c uint64) string { return round("delete", c-1) },
			wantImported: true,
			wantCursorAt: func(c uint64) uint64 { return c },
			wantApplied:  0,
		},
		{
			name:         "delta at the cursor is skipped",
			round:        func(c uint64) string { return round("expire", c) },
			wantImported: true,
			wantCursorAt: func(c uint64) uint64 { return c },
			wantApplied:  0,
		},
		{
			name:         "fresh delete applies and advances",
			round:        func(c uint64) string { return round("delete", c+1) },
			wantImported: false,
			wantCursorAt: func(c uint64) uint64 { return c + 1 },
			wantApplied:  1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newMemFixture(t)
			remote := newScriptedRemote(f.srvB.Handler())
			f.net.Handle("home-b", remote)
			// Two records, so the cursor sits past the first one.
			f.export(t, "x10:lamp-1")
			f.export(t, svc)
			if err := f.link.Pull(context.Background()); err != nil {
				t.Fatalf("pull: %v", err)
			}
			cur := f.link.Status().Cursor
			applied := f.link.Status().Applied
			remote.cannedWatch(c.round(cur))
			if err := f.link.Pull(context.Background()); err != nil {
				t.Fatalf("scripted pull: %v", err)
			}
			st := f.link.Status()
			if got := f.imported(t, svc); got != c.wantImported {
				t.Errorf("imported = %v, want %v", got, c.wantImported)
			}
			if want := c.wantCursorAt(cur); st.Cursor != want {
				t.Errorf("cursor = %d, want %d", st.Cursor, want)
			}
			if got := st.Applied - applied; got != c.wantApplied {
				t.Errorf("applied %d deltas, want %d", got, c.wantApplied)
			}
		})
	}
}

// TestRefreshRacingUnpeer covers an anti-entropy reconcile that was
// already scheduled when the link was unpeered: it must not write the
// withdrawn imports back into the registry the unpeer just cleaned.
func TestRefreshRacingUnpeer(t *testing.T) {
	cases := []struct {
		name string
		late func(*Link) // the replication call landing after Unpeer
	}{
		{"late reconcile", func(l *Link) { l.Reconcile(context.Background()) }},
		{"late pull", func(l *Link) { _ = l.Pull(context.Background()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newMemFixture(t)
			f.export(t, "x10:lamp-1")
			if err := f.link.Pull(context.Background()); err != nil {
				t.Fatalf("pull: %v", err)
			}
			if !f.imported(t, "x10:lamp-1") {
				t.Fatal("service not imported before unpeer")
			}
			if err := f.pA.Unpeer("http://home-b/peer"); err != nil {
				t.Fatalf("unpeer: %v", err)
			}
			if f.imported(t, "x10:lamp-1") {
				t.Fatal("unpeer left the import behind")
			}
			c.late(f.link)
			if f.imported(t, "x10:lamp-1") {
				t.Fatal("replication after unpeer resurrected the import")
			}
			if got := f.link.Status().Imported; got != 0 {
				t.Fatalf("stopped link tracks %d imports", got)
			}
		})
	}
}

// TestManualLinkDegradesOnDeadPeer: removing the remote host from the
// network mid-stream flips the link to degraded mode, and restoring it
// recovers — the partition/heal cycle the simulation schedules.
func TestManualLinkDegradesOnDeadPeer(t *testing.T) {
	f := newMemFixture(t)
	f.export(t, "havi:dvcam-1")
	if err := f.link.Pull(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	f.net.Handle("home-b", nil) // partition
	if err := f.link.Pull(context.Background()); err == nil {
		t.Fatal("pull against dead peer succeeded")
	}
	st := f.link.Status()
	if st.Connected || st.LastError == "" {
		t.Fatalf("status after partition: %+v", st)
	}
	// Degraded mode: the import keeps serving until TTL.
	if !f.imported(t, "havi:dvcam-1") {
		t.Fatal("import vanished on partition")
	}
	// Heal: the home comes back on the network.
	f.net.Handle("home-b", f.srvB.Handler())
	if err := f.link.Pull(context.Background()); err != nil {
		t.Fatalf("pull after heal: %v", err)
	}
	if st := f.link.Status(); !st.Connected {
		t.Fatalf("link did not recover: %+v", st)
	}
}

// pageCounter fronts an exporter's faces and counts the page requests
// (state_page) that reach it.
type pageCounter struct {
	h     http.Handler
	pages atomic.Int64
}

func (c *pageCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if bytes.Contains(body, []byte("<state_page")) {
		c.pages.Add(1)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	c.h.ServeHTTP(w, r)
}

// TestFirstPullOnTrimmedJournalWalksOnce: a manual link's first pull
// against an exporter whose journal no longer covers seq 0 reconciles
// once, before its watch round, and that round starts past the walk —
// not a resync that reconciles a second time.
func TestFirstPullOnTrimmedJournalWalksOnce(t *testing.T) {
	f := newMemFixture(t)
	counter := &pageCounter{h: f.srvB.Handler()}
	f.net.Handle("home-b", counter)
	f.regB.SetJournalCapacity(2)
	ids := []string{"x10:lamp-1", "x10:lamp-2", "x10:lamp-3", "x10:lamp-4", "x10:lamp-5"}
	for _, id := range ids {
		f.export(t, id)
	}
	if err := f.link.Pull(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	st := f.link.Status()
	if st.Resyncs != 0 || !st.Connected {
		t.Fatalf("after the first pull: %d resyncs, connected %v; want 0, true", st.Resyncs, st.Connected)
	}
	if n := counter.pages.Load(); n != 1 {
		t.Fatalf("first contact read %d pages, want 1", n)
	}
	if st.Cursor != f.regB.Seq() {
		t.Fatalf("cursor = %d, want %d", st.Cursor, f.regB.Seq())
	}
	for _, id := range ids {
		if !f.imported(t, id) {
			t.Fatalf("%s not imported after the first pull", id)
		}
	}
}
