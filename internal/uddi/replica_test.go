// Failover edge tests for the replication protocol layer: replica-mode
// write rejection on both wire encodings, epoch fencing and durability,
// cursor continuity under duplicate and gapped feeds, torn-WAL replica
// re-attach, and the XML-vs-binary replication-frame equivalence the
// HCB1 fast path must hold to keep mixed replica sets convergent.
package uddi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/transport"
)

// stateBytes serializes a registry's full replicated state — position,
// regime, and every live entry with its deadline — into one canonical
// byte string, so two replicas can be compared for exact convergence.
func stateBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	s.jmu.Lock()
	b := binary.AppendUvarint(nil, s.seq)
	b = binary.AppendUvarint(b, s.epoch)
	b = appendWALString(b, s.epochLeader)
	s.jmu.Unlock()
	now := s.now()
	for _, rec := range s.sortedRecords() {
		if now.After(rec.expires) {
			continue
		}
		b = appendBinEntry(b, &rec.entry)
		b = binary.AppendUvarint(b, uint64(rec.expires.UnixMilli()))
	}
	return b
}

// applyState installs entries, in any order, as one staged page: a state
// transfer without the wire. It orders them by key, as pages arrive.
func applyState(s *Server, entries []Entry, deadlines []time.Time, seq, epoch uint64, leader string) error {
	p := Page{Entries: slices.Clone(entries), Deadlines: slices.Clone(deadlines)}
	sort.Sort(pageByKey(p))
	st := s.Stage()
	if err := st.Add(&p); err != nil {
		return err
	}
	return st.Install(seq, epoch, leader)
}

// pageByKey sorts a page's entries and deadlines together by key.
type pageByKey Page

func (p pageByKey) Len() int           { return len(p.Entries) }
func (p pageByKey) Less(i, j int) bool { return p.Entries[i].Key < p.Entries[j].Key }
func (p pageByKey) Swap(i, j int) {
	p.Entries[i], p.Entries[j] = p.Entries[j], p.Entries[i]
	p.Deadlines[i], p.Deadlines[j] = p.Deadlines[j], p.Deadlines[i]
}

// pullPages walks every page fetch serves into dst and installs them at
// the first page's position, as a replica attach does, returning the
// first page.
func pullPages(fetch func(after string) (Page, error), dst *Server) (Page, error) {
	st := dst.Stage()
	var first Page
	for after := ""; ; {
		p, err := fetch(after)
		if err != nil {
			return Page{}, err
		}
		if after == "" {
			first = p
		}
		if err := st.Add(&p); err != nil {
			return Page{}, err
		}
		if p.Next == "" {
			break
		}
		after = p.Next
	}
	return first, st.Install(first.Seq, first.Epoch, first.Leader)
}

func TestReplicaModeRejectsWrites(t *testing.T) {
	const leaderURL = "http://leader.test/uddi"
	s := NewServer()
	defer s.Close()
	seeded := s.Save(lampEntry(), time.Hour)
	s.SetReplicaOf(leaderURL)

	t.Run("xml", func(t *testing.T) {
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		c := &Client{URL: srv.URL}
		ctx := context.Background()
		if _, err := c.Save(ctx, lampEntry(), time.Hour); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("Save on replica: err = %v, want ErrNotLeader", err)
		}
		_, err := c.Save(ctx, lampEntry(), time.Hour)
		if hint := LeaderHint(err); hint != leaderURL {
			t.Fatalf("LeaderHint = %q, want %q", hint, leaderURL)
		}
		if err := c.Delete(ctx, seeded); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("Delete on replica: err = %v, want ErrNotLeader", err)
		}
		// Reads keep working anywhere in the set.
		if got, err := c.Find(ctx, Query{}); err != nil || len(got) != 1 {
			t.Fatalf("Find on replica = %d entries, err %v", len(got), err)
		}
	})

	t.Run("binary", func(t *testing.T) {
		resp := binServe(s, Face{}, "home-a", encodeBinSaveAll([]Entry{lampEntry()}, time.Hour))
		if resp.Status != http.StatusMisdirectedRequest {
			t.Fatalf("binary save on replica: status %d, want %d", resp.Status, http.StatusMisdirectedRequest)
		}
		if len(resp.Body) < 2 || resp.Body[1] != binUDDIError {
			t.Fatalf("binary save on replica: not an error record: % x", resp.Body[:min(len(resp.Body), 4)])
		}
		r := &walReader{b: resp.Body, off: 2}
		code, info := r.str(), r.str()
		if r.err != nil || code != "E_notLeader" {
			t.Fatalf("binary error code = %q (%v), want E_notLeader", code, r.err)
		}
		if leaderHintIn(info) != leaderURL {
			t.Fatalf("binary error info %q does not carry the leader hint", info)
		}
		// Binary reads keep working.
		resp = binServe(s, Face{}, "home-a", encodeBinFind(Query{}))
		if entries, _, err := decodeBinEntries(resp.Body); err != nil || len(entries) != 1 {
			t.Fatalf("binary find on replica = %d entries, err %v", len(entries), err)
		}
	})
}

// The replica-set-aware client: a write that lands on a replica follows
// the leader hint, a dead endpoint advances the resolver, and the caller
// sees neither.
func TestClientFailover(t *testing.T) {
	mem := transport.NewMemNet()
	leader := NewServer()
	defer leader.Close()
	replica := NewServer()
	defer replica.Close()
	const (
		leaderURL  = "http://lead.test/uddi"
		replicaURL = "http://repl.test/uddi"
		deadURL    = "http://dead.test/uddi"
	)
	replica.SetReplicaOf(leaderURL)
	mem.Handle("lead.test", leader.Handler())
	mem.Handle("repl.test", replica.Handler())
	ctx := context.Background()

	t.Run("not-leader re-pins", func(t *testing.T) {
		c := &Client{HTTP: mem.Client(), Resolver: transport.NewResolver(replicaURL, leaderURL)}
		if _, err := c.Save(ctx, lampEntry(), time.Hour); err != nil {
			t.Fatalf("Save through resolver: %v", err)
		}
		if leader.Len() != 1 {
			t.Fatalf("leader Len = %d: the write did not follow the hint", leader.Len())
		}
		if got := c.Resolver.Current(); got != leaderURL {
			t.Fatalf("resolver pinned %q, want the leader", got)
		}
	})

	t.Run("dead endpoint advances", func(t *testing.T) {
		c := &Client{HTTP: mem.Client(), Resolver: transport.NewResolver(deadURL, leaderURL)}
		if _, err := c.Find(ctx, Query{}); err != nil {
			t.Fatalf("Find through resolver with a dead head: %v", err)
		}
		if got := c.Resolver.Current(); got != leaderURL {
			t.Fatalf("resolver stayed on %q, want the live endpoint", got)
		}
	})

	t.Run("all endpoints dead surfaces the error", func(t *testing.T) {
		c := &Client{HTTP: mem.Client(), Resolver: transport.NewResolver(deadURL, "http://dead2.test/uddi")}
		if _, err := c.Find(ctx, Query{}); err == nil {
			t.Fatal("Find with every endpoint dead returned nil error")
		}
	})
}

// TestClientFailoverSendsOnlyNativeRecords: a resolver-backed client
// with a Dialer whose first endpoint is dead fails over to a live member
// that speaks the binary fast path, and sends it the native record — one
// loop, so the dead endpoint's lack of binary never leaks an XML
// document into the live member's frames.
func TestClientFailoverSendsOnlyNativeRecords(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String() + "/uddi"
	ln.Close()

	s := NewServer()
	defer s.Close()
	s.Save(lampEntry(), time.Hour)
	var mu sync.Mutex
	var seen []string
	native := s.BinHandler(Face{})
	bs := transport.NewBinServer(nil)
	defer bs.Close()
	bs.Handle("/uddi", transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
		mu.Lock()
		seen = append(seen, req.ContentType)
		mu.Unlock()
		return native.ServeBin(ctx, caller, req)
	}))
	const liveAuthority = "one-encoding-live.test:1"
	transport.RegisterLocal(liveAuthority, bs)
	defer transport.UnregisterLocal(liveAuthority)
	liveURL := "http://" + liveAuthority + "/uddi"

	d := transport.NewDialer(nil)
	defer d.Close()
	c := &Client{Dialer: d, Resolver: transport.NewResolver(deadURL, liveURL)}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	entries, seq, err := c.FindSeq(ctx, Query{})
	if err != nil {
		t.Fatalf("FindSeq through a dead head: %v", err)
	}
	if len(entries) != 1 || seq != s.Seq() {
		t.Fatalf("FindSeq = %d entries at seq %d, want 1 at %d", len(entries), seq, s.Seq())
	}
	if got := c.Resolver.Current(); got != liveURL {
		t.Fatalf("resolver on %q, want the live member", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("the live member saw no binary request")
	}
	for _, ct := range seen {
		if ct != BinContentType {
			t.Errorf("live member received content type %q over binary, want only %q", ct, BinContentType)
		}
	}
}

func TestSetEpochFencing(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.SetEpoch(5, "http://a/uddi"); err != nil {
		t.Fatalf("SetEpoch(5): %v", err)
	}
	if err := s.SetEpoch(4, "http://b/uddi"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("epoch regression: err = %v, want ErrStaleEpoch", err)
	}
	// Equal-epoch re-assert with a new leader name is allowed: the
	// deterministic loser of a double promotion re-grounds on the winner
	// without burning an epoch.
	if err := s.SetEpoch(5, "http://b/uddi"); err != nil {
		t.Fatalf("equal-epoch re-assert: %v", err)
	}
	epoch, leader := s.Epoch()
	if epoch != 5 || leader != "http://b/uddi" {
		t.Fatalf("Epoch = %d %q after re-assert", epoch, leader)
	}
}

func TestEpochSurvivesRestartAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := s.SetEpoch(3, "http://m1/uddi"); err != nil {
		t.Fatal(err)
	}
	// Enough writes to roll a snapshot past the epoch frame: the epoch
	// must ride the snapshot too, not just the replayable tail.
	for i := 0; i < 5; i++ {
		s.Save(lampEntry(), time.Hour)
	}
	s.Sweep() // snapshot maintenance runs on the sweep seam
	s.Close()

	s = open()
	defer s.Close()
	epoch, leader := s.Epoch()
	if epoch != 3 || leader != "http://m1/uddi" {
		t.Fatalf("after restart: epoch = %d leader = %q, want 3 http://m1/uddi", epoch, leader)
	}
}

func feedChange(seq uint64, key string) Change {
	e := lampEntry()
	e.Key = key
	return Change{Seq: seq, Op: OpAdd, Entry: e, Expires: time.Now().Add(time.Hour)}
}

func TestApplyReplicatedCursorContinuity(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.ApplyReplicated(feedChange(seq, NewKey())); err != nil {
			t.Fatalf("apply seq %d: %v", seq, err)
		}
	}
	if s.Seq() != 3 {
		t.Fatalf("Seq = %d, want the leader's 3", s.Seq())
	}
	// The replica's journal serves the same cursors the leader would:
	// an importer that was at 0 replays all three without a resync.
	ctx := context.Background()
	changes, next, resync, err := s.WatchChanges(ctx, 0, time.Millisecond)
	if err != nil || resync || len(changes) != 3 || next != 3 {
		t.Fatalf("WatchChanges(0) = %d changes next %d resync %v err %v", len(changes), next, resync, err)
	}
	// Duplicate redelivery (the feed re-sent an already-applied change)
	// is a no-op, not a divergence.
	dup := feedChange(2, "uuid:dup")
	if err := s.ApplyReplicated(dup); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if _, ok := s.Get("uuid:dup"); ok {
		t.Fatal("duplicate redelivery was applied")
	}
	// A sequence gap re-grounds the journal: the position advances and
	// watchers behind the gap are told to resync rather than fed a hole.
	if err := s.ApplyReplicated(feedChange(10, NewKey())); err != nil {
		t.Fatalf("gapped apply: %v", err)
	}
	if s.Seq() != 10 {
		t.Fatalf("Seq after gap = %d, want 10", s.Seq())
	}
	if _, _, resync, _ := s.WatchChanges(ctx, 3, time.Millisecond); !resync {
		t.Fatal("watcher behind a replication gap was not told to resync")
	}
}

func TestReplWatchStaleEpochFence(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.SetEpoch(2, "http://old/uddi"); err != nil {
		t.Fatal(err)
	}
	s.Save(lampEntry(), time.Hour)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{URL: srv.URL}
	ctx := context.Background()
	// A replica that has acknowledged epoch 3 must not keep feeding from
	// an epoch-2 leader: the old regime fences the request.
	if _, err := c.ReplWatch(ctx, 0, 3, time.Millisecond); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale feed: err = %v, want ErrStaleEpoch", err)
	}
	// Same regime feeds fine.
	rc, err := c.ReplWatch(ctx, 0, 2, time.Millisecond)
	if err != nil || len(rc.Changes) != 1 || rc.Epoch != 2 {
		t.Fatalf("current-epoch feed = %d changes epoch %d err %v", len(rc.Changes), rc.Epoch, err)
	}
}

// A replica whose WAL lost its tail (torn final record) recovers the
// surviving prefix, re-attaches with a state transfer, and after the
// transfer no pre-crash entry the leader has since dropped can rise from
// its disk again — the attach resets the replica's WAL history.
func TestTornWALReplicaReattach(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for seq := uint64(1); seq <= 4; seq++ {
		if err := s.ApplyReplicated(feedChange(seq, NewKey())); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the newest segment mid-record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s = open()
	if got := s.Seq(); got != 3 {
		t.Fatalf("recovered seq = %d, want the 3 whole records", got)
	}

	// The leader moved on while this replica was down: a fresh regime
	// whose state does not include any of the torn replica's entries.
	leaderEntry := lampEntry()
	leaderEntry.Key = "uuid:leader-only"
	deadline := time.Now().Add(time.Hour)
	if err := applyState(s, []Entry{leaderEntry}, []time.Time{deadline}, 9, 2, "http://new/uddi"); err != nil {
		t.Fatalf("attach: %v", err)
	}
	want := stateBytes(t, s)
	s.Close()

	// Restart again: recovery must reproduce the transferred state
	// exactly — the pre-crash WAL records are gone, not replayed under it.
	s = open()
	defer s.Close()
	if got := stateBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("state after post-attach restart diverged:\n got % x\nwant % x", got, want)
	}
	if _, ok := s.Get("uuid:leader-only"); !ok {
		t.Fatal("transferred entry missing after restart")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d: pre-crash entries resurrected past the attach", s.Len())
	}
}

// A state transfer refuses to install an older regime than the replica
// has acknowledged: a stale leader cannot roll a replica back.
func TestApplyReplicatedStateStaleEpoch(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.SetEpoch(4, "http://m1/uddi"); err != nil {
		t.Fatal(err)
	}
	err := s.Stage().Install(1, 3, "http://old/uddi")
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale state transfer: err = %v, want ErrStaleEpoch", err)
	}
}

// The replication frames must describe the same feed on both wire
// encodings: a SOAP/XML replica and an HCB1 binary replica of the same
// leader converge to byte-identical registry state, including entries
// full of XML-hostile bytes, updates, deletes and expiries.
func TestReplFramesXMLBinaryEquivalence(t *testing.T) {
	leader := NewManualServer()
	defer leader.Close()
	clk := newFakeClock(time.Unix(5000, 0))
	leader.SetClock(clk.now)
	if err := leader.SetEpoch(7, "http://leader/uddi"); err != nil {
		t.Fatal(err)
	}

	// A feed with every change shape: hostile add, update, delete,
	// expiry. The hostile entry stays inside XML's representable range —
	// raw control bytes are the binary wire's exclusive (and separately
	// tested) territory; mixed replica sets converge on what both wires
	// can carry.
	hostile := hostileEntry
	hostile.Description = "line\nbreak\ttab é☃ <no&nul>"
	hk := leader.Save(hostile, time.Hour)
	doomed := leader.Save(lampEntry(), time.Hour)
	fleeting := leader.Save(func() Entry { e := lampEntry(); e.Key = "uuid:fleeting"; return e }(), 10*time.Second)
	upd := hostile
	upd.Key = hk
	upd.Description = "updated <&> desc"
	leader.Save(upd, 2*time.Hour)
	leader.Delete(doomed)
	clk.advance(11 * time.Second)
	leader.Sweep() // journals the expiry of "uuid:fleeting"
	_ = fleeting

	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()
	ctx := context.Background()

	// XML replica: feed decoded from the SOAP face.
	xmlReplica := NewServer()
	defer xmlReplica.Close()
	c := &Client{URL: srv.URL}
	rcXML, err := c.ReplWatch(ctx, 0, 0, time.Millisecond)
	if err != nil || rcXML.Resync {
		t.Fatalf("xml repl_watch: resync %v err %v", rcXML.Resync, err)
	}
	if err := xmlReplica.SetEpoch(rcXML.Epoch, rcXML.Leader); err != nil {
		t.Fatal(err)
	}
	for _, ch := range rcXML.Changes {
		if err := xmlReplica.ApplyReplicated(ch); err != nil {
			t.Fatalf("xml apply seq %d: %v", ch.Seq, err)
		}
	}

	// Binary replica: the same feed through the HCB1 records.
	binReplica := NewServer()
	defer binReplica.Close()
	resp := binServe(leader, Face{}, "home-a", encodeBinReplWatchReq(0, 0, time.Millisecond))
	rcBin, err := decodeBinReplChanges(resp.Body)
	if err != nil || rcBin.Resync {
		t.Fatalf("binary repl_watch: resync %v err %v", rcBin.Resync, err)
	}
	if err := binReplica.SetEpoch(rcBin.Epoch, rcBin.Leader); err != nil {
		t.Fatal(err)
	}
	for _, ch := range rcBin.Changes {
		if err := binReplica.ApplyReplicated(ch); err != nil {
			t.Fatalf("binary apply seq %d: %v", ch.Seq, err)
		}
	}

	// Both wires must have described the identical feed...
	if len(rcXML.Changes) != len(rcBin.Changes) {
		t.Fatalf("feed lengths differ: xml %d binary %d", len(rcXML.Changes), len(rcBin.Changes))
	}
	for i := range rcXML.Changes {
		x, b := rcXML.Changes[i], rcBin.Changes[i]
		if x.Seq != b.Seq || x.Op != b.Op || x.Entry.Key != b.Entry.Key ||
			!entriesEqual(x.Entry, b.Entry) || !x.Expires.Equal(b.Expires) {
			t.Fatalf("change %d differs between wires:\nxml %+v\nbin %+v", i, x, b)
		}
	}
	// ...and the replicas they fed must be byte-identical.
	if x, b := stateBytes(t, xmlReplica), stateBytes(t, binReplica); !bytes.Equal(x, b) {
		t.Fatalf("replica states diverged:\n xml % x\n bin % x", x, b)
	}

	// The state-transfer pages agree the same way.
	xmlR2, binR2 := NewServer(), NewServer()
	defer xmlR2.Close()
	defer binR2.Close()
	if _, err := pullPages(func(after string) (Page, error) { return c.Page(ctx, after, 0) }, xmlR2); err != nil {
		t.Fatal(err)
	}
	if _, err := pullPages(func(after string) (Page, error) {
		return decodeBinPage(binServe(leader, Face{}, "home-a", encodeBinPageReq(after, 0)).Body)
	}, binR2); err != nil {
		t.Fatal(err)
	}
	if x, b := stateBytes(t, xmlR2), stateBytes(t, binR2); !bytes.Equal(x, b) {
		t.Fatalf("state transfers diverged:\n xml % x\n bin % x", x, b)
	}
}
