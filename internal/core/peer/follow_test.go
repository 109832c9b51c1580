// Follower-level link tests: an import link rides through a remote
// replica-set failover, and a manual link (Pull) and a background link
// (Run) driven over the same scripted remote end in the same state.
package peer

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// scriptedRemote fronts an exporter's faces on the in-memory network
// with the faults a test scripts: an outage that fails the long-polls
// already parked at the exporter as well as new requests, and canned
// answers for the next watch rounds.
type scriptedRemote struct {
	h http.Handler

	mu       sync.Mutex
	down     bool
	inflight map[*http.Request]context.CancelFunc
	canned   []string
}

func newScriptedRemote(h http.Handler) *scriptedRemote {
	return &scriptedRemote{h: h, inflight: make(map[*http.Request]context.CancelFunc)}
}

func (s *scriptedRemote) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		http.Error(w, "host down", http.StatusServiceUnavailable)
		return
	}
	if len(s.canned) > 0 && bytes.Contains(body, []byte("<watch")) {
		answer := s.canned[0]
		s.canned = s.canned[1:]
		s.mu.Unlock()
		w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
		_, _ = w.Write([]byte(answer))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	s.inflight[r] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, r)
		s.mu.Unlock()
		cancel()
	}()
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r.WithContext(ctx))
	s.mu.Lock()
	cut := s.down
	s.mu.Unlock()
	if cut {
		// The host went away mid-request: the caller sees a broken
		// connection, not whatever the aborted handler managed to write.
		http.Error(w, "host down", http.StatusServiceUnavailable)
		return
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// setDown takes the host off the network (failing parked requests too)
// or puts it back.
func (s *scriptedRemote) setDown(down bool) {
	s.mu.Lock()
	s.down = down
	var cancels []context.CancelFunc
	if down {
		for _, c := range s.inflight {
			cancels = append(cancels, c)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// cannedWatch queues a raw changeList document as the answer to the next
// watch round, in place of the exporter's own.
func (s *scriptedRemote) cannedWatch(doc string) {
	s.mu.Lock()
	s.canned = append(s.canned, doc)
	s.mu.Unlock()
}

// exporter is one remote home registry on the in-memory network: a
// registry at a fixed replication epoch with its peering export face.
type exporter struct {
	reg *uddi.Server
	srv *vsr.Server
}

func newExporter(t *testing.T, clock *vclock.Virtual, net *transport.MemNet, epoch uint64, leader string) *exporter {
	t.Helper()
	reg := uddi.NewManualServer()
	reg.SetClock(clock.Now)
	if err := reg.SetEpoch(epoch, leader); err != nil {
		t.Fatal(err)
	}
	srv := vsr.NewDetachedServer("home-b", reg, nil)
	t.Cleanup(srv.Close)
	p, err := New("home-b", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetClock(clock)
	p.SetTransport(net)
	srv.MountPeer(p.ExportView)
	return &exporter{reg: reg, srv: srv}
}

func (e *exporter) export(t *testing.T, id string) {
	t.Helper()
	entry, err := vsr.EntryFor(testDesc(id), "http://home-b/soap")
	if err != nil {
		t.Fatal(err)
	}
	e.reg.Save(entry, time.Hour)
}

// newImporter builds an importing home's registry and peering on the
// in-memory network.
func newImporter(t *testing.T, name string, clock *vclock.Virtual, net *transport.MemNet) (*uddi.Server, *Peering) {
	t.Helper()
	reg := uddi.NewManualServer()
	reg.SetClock(clock.Now)
	p, err := New(name, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetClock(clock)
	p.SetTransport(net)
	return reg, p
}

func hasImport(reg *uddi.Server, id string) bool {
	_, ok := reg.Get("uuid:svc-home-b/" + id)
	return ok
}

// waitStatus polls a background link until ok accepts its status.
func waitStatus(t *testing.T, l *Link, what string, ok func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := l.Status()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("background link never reached %s: %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverReplayImportsNewRegime: the exporter's leader acknowledged
// five writes in epoch 1 and died; its replica had mirrored three, was
// promoted to epoch 2 and took two new writes, which reuse sequence
// numbers 4 and 5. An importer holding cursor 5 from the old regime is
// replayed from the boundary (3), so the new regime's writes arrive with
// sequence numbers at or below its old cursor. The follower must
// re-ground on the replay point before applying them, not drop them as
// already seen.
func TestFailoverReplayImportsNewRegime(t *testing.T) {
	newRegime := []string{"upnp:tv-1", "x10:lamp-1"}
	setup := func(t *testing.T) (net *transport.MemNet, old, promoted *exporter, regA *uddi.Server, pA *Peering) {
		clock := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
		net = transport.NewMemNet()
		old = newExporter(t, clock, net, 1, "http://home-b/uddi")
		for _, id := range []string{"havi:dvcam-1", "jini:printer-1", "jini:laserdisc-1", "mail:outbox", "havi:vcr-1"} {
			old.export(t, id)
		}
		promoted = newExporter(t, clock, net, 1, "http://home-b/uddi")
		promoted.reg.SetReplicaOf("http://home-b/uddi")
		feed, _, _, _ := old.reg.ChangesEpoch(0, 0, false)
		for _, c := range feed[:3] {
			if err := promoted.reg.ApplyReplicated(c); err != nil {
				t.Fatal(err)
			}
		}
		net.Handle("home-b", old.srv.Handler())
		regA, pA = newImporter(t, "home-a", clock, net)
		return
	}
	// failover promotes the replica, which takes the new regime's writes,
	// and moves the exporter's address over to it.
	failover := func(t *testing.T, net *transport.MemNet, old, promoted *exporter) {
		if err := promoted.reg.SetEpoch(2, "http://home-b2/uddi"); err != nil {
			t.Fatal(err)
		}
		promoted.reg.SetReplicaOf("")
		for _, id := range newRegime {
			promoted.export(t, id)
		}
		net.Handle("home-b", promoted.srv.Handler())
		// Closing the dead leader wakes any watch round parked there.
		old.srv.Close()
	}
	check := func(t *testing.T, st Status, regA *uddi.Server) {
		t.Helper()
		for _, id := range newRegime {
			if !hasImport(regA, id) {
				t.Errorf("new-regime service %s not imported: %+v", id, st)
			}
		}
		if st.Cursor != 5 || st.CursorEpoch != 2 || st.Resyncs != 0 {
			t.Errorf("link after failover: cursor %d epoch %d resyncs %d, want cursor 5 epoch 2 and no resync",
				st.Cursor, st.CursorEpoch, st.Resyncs)
		}
		if st.Applied != 2 {
			t.Errorf("applied %d deltas, want the 2 new-regime changes", st.Applied)
		}
	}

	t.Run("manual", func(t *testing.T) {
		net, old, promoted, regA, pA := setup(t)
		link, err := pA.PeerManual("http://home-b/peer")
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Pull(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := link.Status(); st.Cursor != 5 || st.CursorEpoch != 1 || st.Imported != 5 {
			t.Fatalf("before failover: %+v", st)
		}
		failover(t, net, old, promoted)
		if err := link.Pull(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(t, link.Status(), regA)
	})

	t.Run("background", func(t *testing.T) {
		net, old, promoted, regA, pA := setup(t)
		link, err := pA.Peer("http://home-b/peer")
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, link, "the old regime's cursor", func(st Status) bool {
			return st.Connected && st.Cursor == 5 && st.Imported == 5
		})
		failover(t, net, old, promoted)
		st := waitStatus(t, link, "the new regime", func(st Status) bool {
			return hasImport(regA, newRegime[0]) && hasImport(regA, newRegime[1])
		})
		check(t, st, regA)
	})
}

// TestManualAndBackgroundLinksAgree drives a manual link (Pull) and a
// background link (Run) over one scripted exporter — writes, an outage,
// a journal overrun while the links are cut off, and an epoch bump — and
// requires the two to agree on the replication state after every phase.
func TestManualAndBackgroundLinksAgree(t *testing.T) {
	clock := vclock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	net := transport.NewMemNet()
	exp := newExporter(t, clock, net, 1, "http://home-b/uddi")
	exp.reg.SetJournalCapacity(4)
	remote := newScriptedRemote(exp.srv.Handler())
	net.Handle("home-b", remote)

	n := 0
	write := func(k int) {
		for i := 0; i < k; i++ {
			exp.export(t, "svc-"+string(rune('a'+n)))
			n++
		}
	}
	// Both links make first contact with the same two records.
	write(2)

	regM, pM := newImporter(t, "home-a", clock, net)
	regB, pB := newImporter(t, "home-c", clock, net)
	manual, err := pM.PeerManual("http://home-b/peer")
	if err != nil {
		t.Fatal(err)
	}
	// The virtual clock never advances, so the background link's
	// anti-entropy refresh stays out of the comparison.
	background, err := pB.Peer("http://home-b/peer")
	if err != nil {
		t.Fatal(err)
	}

	type view struct {
		Connected           bool
		Cursor, CursorEpoch uint64
		Applied, Resyncs    uint64
	}
	viewOf := func(st Status) view {
		return view{st.Connected, st.Cursor, st.CursorEpoch, st.Applied, st.Resyncs}
	}
	phase := func(name string, want view, act func()) {
		t.Helper()
		act()
		_ = manual.Pull(context.Background())
		if got := viewOf(manual.Status()); got != want {
			t.Fatalf("%s: manual link %+v, want %+v", name, got, want)
		}
		waitStatus(t, background, name, func(st Status) bool { return viewOf(st) == want })
		for i := 0; i < n; i++ {
			id := "svc-" + string(rune('a'+i))
			if want.Connected && hasImport(regM, id) != hasImport(regB, id) {
				t.Fatalf("%s: links disagree on %s", name, id)
			}
		}
	}

	phase("first contact", view{true, 2, 1, 0, 0}, func() {})
	phase("writes", view{true, 5, 1, 3, 0}, func() { write(3) })
	phase("outage", view{false, 5, 1, 3, 0}, func() { remote.setDown(true) })
	phase("overrun", view{true, 11, 1, 3, 1}, func() {
		write(6) // journal holds 4: the cursor falls out of it
		remote.setDown(false)
	})
	phase("epoch bump", view{true, 13, 2, 5, 1}, func() {
		if err := exp.reg.SetEpoch(2, "http://home-b2/uddi"); err != nil {
			t.Fatal(err)
		}
		write(2)
	})
	for i := 0; i < n; i++ {
		id := "svc-" + string(rune('a'+i))
		if !hasImport(regM, id) || !hasImport(regB, id) {
			t.Fatalf("%s missing after the script: manual %v, background %v",
				id, hasImport(regM, id), hasImport(regB, id))
		}
	}
}
