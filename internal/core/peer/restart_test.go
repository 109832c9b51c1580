// Restart-transparency tests: a durable exporter killed and rebuilt from
// its data directory must look, to an importing peer, like a network
// blip — the replication cursor resumes with no full-snapshot resync —
// while a non-durable exporter restarting from sequence zero must force
// exactly one resync. In-memory network, virtual clock, manual links.
package peer

import (
	"context"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// restartFixture is a memFixture whose exporter home-b runs a durable
// registry that can be crash-closed and rebuilt from the same directory.
type restartFixture struct {
	*memFixture
	t   *testing.T
	dir string
}

func newRestartFixture(t *testing.T) *restartFixture {
	t.Helper()
	f := &restartFixture{t: t, dir: t.TempDir()}
	clock := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	net := transport.NewMemNet()

	regA := uddi.NewManualServer()
	regA.SetClock(clock.Now)
	srvA := vsr.NewDetachedServer("home-a", regA, nil)
	t.Cleanup(srvA.Close)
	pA, err := New("home-a", regA, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pA.Close)
	pA.SetClock(clock)
	pA.SetTransport(net)
	net.Handle("home-a", srvA.Handler())

	f.memFixture = &memFixture{clock: clock, net: net, regA: regA, pA: pA}
	f.bootExporter()

	link, err := pA.PeerManual("http://home-b/peer")
	if err != nil {
		t.Fatal(err)
	}
	f.link = link
	return f
}

// bootExporter builds (or rebuilds) home-b over the durable registry in
// f.dir and puts it back on the network — one process incarnation.
func (f *restartFixture) bootExporter() {
	f.t.Helper()
	reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
		Dir: f.dir, Fsync: uddi.FsyncOff, Clock: f.clock.Now,
	})
	if err != nil {
		f.t.Fatalf("boot exporter: %v", err)
	}
	srv := vsr.NewDetachedServer("home-b", reg, nil)
	p, err := New("home-b", reg, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	p.SetClock(f.clock)
	p.SetTransport(f.net)
	srv.MountPeer(p.ExportView)
	f.net.Handle("home-b", srv.Handler())
	f.regB, f.srvB = reg, srv
	f.t.Cleanup(func() { p.Close(); srv.Close() })
}

// crashExporter kills home-b: off the network, registry crash-closed.
func (f *restartFixture) crashExporter() {
	f.net.Handle("home-b", nil)
	f.regB.CrashClose()
	f.srvB.Close()
}

// TestDurableRestartResumesCursor is the PR's acceptance scenario at the
// peer layer: exporter killed mid-churn and rebuilt from its data dir,
// the importer's next pull resumes from its cursor — no resync, no
// re-reconcile, only the tail it actually missed.
func TestDurableRestartResumesCursor(t *testing.T) {
	ctx := context.Background()
	f := newRestartFixture(t)
	f.export(t, "havi:dvcam-1")
	f.export(t, "jini:printer-1")
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	st := f.link.Status()
	if st.Resyncs != 0 || !f.imported(t, "havi:dvcam-1") {
		t.Fatalf("baseline replication wrong: %+v", st)
	}
	cursor := st.Cursor
	lastSync := st.LastSync

	// Churn the exporter right up to the kill.
	f.export(t, "x10:lamp-1")
	f.crashExporter()

	// Importer notices the outage.
	if err := f.link.Pull(ctx); err == nil {
		t.Fatal("pull against crashed exporter succeeded")
	}
	if st := f.link.Status(); st.Connected {
		t.Fatalf("link still connected across crash: %+v", st)
	}

	// Restart from the same directory; sequence numbers must continue.
	f.bootExporter()
	if f.regB.Seq() < cursor {
		t.Fatalf("exporter seq regressed: %d < importer cursor %d", f.regB.Seq(), cursor)
	}
	f.clock.Advance(time.Second)
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("pull after restart: %v", err)
	}
	st = f.link.Status()
	if !st.Connected {
		t.Fatalf("link did not recover: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("durable restart forced %d resyncs, want 0: %+v", st.Resyncs, st)
	}
	if !st.LastSync.Equal(lastSync) {
		t.Fatalf("reconnect ran a full reconcile (LastSync moved %v → %v)", lastSync, st.LastSync)
	}
	if st.Cursor <= cursor {
		t.Fatalf("cursor did not advance over the missed tail: %d ≤ %d", st.Cursor, cursor)
	}
	// The registration made just before the kill arrived incrementally.
	if !f.imported(t, "x10:lamp-1") {
		t.Fatal("pre-crash registration not replicated after restart")
	}
	// And post-restart churn flows as if nothing happened.
	f.export(t, "upnp:tv-1")
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if !f.imported(t, "upnp:tv-1") {
		t.Fatal("post-restart registration not replicated")
	}
}

// TestNonDurableRestartForcesResync is the contrast case: an exporter
// that loses its journal restarts from sequence zero, the importer's
// cursor is unserviceable, and the link must fall back to exactly one
// full-snapshot resync (counted in Status.Resyncs).
func TestNonDurableRestartForcesResync(t *testing.T) {
	ctx := context.Background()
	f := newMemFixture(t)
	f.export(t, "havi:dvcam-1")
	f.export(t, "jini:printer-1")
	f.export(t, "x10:lamp-1")
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	cursor := f.link.Status().Cursor

	// Kill home-b and restart it with a fresh in-memory registry: the
	// journal restarts from zero.
	f.net.Handle("home-b", nil)
	f.regB.Close()
	f.srvB.Close()
	_ = f.link.Pull(ctx) // observe the outage

	reg := uddi.NewManualServer()
	reg.SetClock(f.clock.Now)
	srv := vsr.NewDetachedServer("home-b", reg, nil)
	t.Cleanup(srv.Close)
	p, err := New("home-b", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetClock(f.clock)
	p.SetTransport(f.net)
	srv.MountPeer(p.ExportView)
	f.net.Handle("home-b", srv.Handler())
	entry, err := vsr.EntryFor(testDesc("havi:dvcam-1"), "http://home-b/soap")
	if err != nil {
		t.Fatal(err)
	}
	reg.Save(entry, time.Hour)

	f.clock.Advance(time.Second)
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("pull after amnesiac restart: %v", err)
	}
	st := f.link.Status()
	if st.Resyncs != 1 {
		t.Fatalf("amnesiac restart produced %d resyncs, want 1: %+v", st.Resyncs, st)
	}
	if !f.imported(t, "havi:dvcam-1") {
		t.Fatal("resync did not re-import the surviving service")
	}
	// The cursor never regresses (stale-delta guard), so every pull keeps
	// resyncing until the reborn journal grows past it — the storm a
	// durable restart avoids entirely.
	if err := f.link.Pull(ctx); err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if got := f.link.Status(); got.Resyncs != 2 {
		t.Fatalf("second pull against short journal: %d resyncs, want 2 (cursor %d vs pre-crash %d)",
			got.Resyncs, got.Cursor, cursor)
	}
}
