package replica

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// TestRegistryHoldsOneDocumentPerInterface: 1024 devices of one
// interface, published through vsr.EntryFor, pass through each way a
// registry takes entries in — a batched save over the binary face, the
// replica feed, WAL replay and a snapshot load — and every registry they
// land in holds one copy of the interface's document, not one per device.
func TestRegistryHoldsOneDocumentPerInterface(t *testing.T) {
	const n = 1024
	ctx := context.Background()
	regs := make([]vsr.Registration, n)
	for i := range regs {
		id := fmt.Sprintf("dev%d:d-%05d", i%8, i)
		regs[i] = vsr.Registration{
			Desc: service.Description{ID: id, Name: id, Middleware: fmt.Sprintf("dev%d", i%8),
				Interface: service.Interface{Name: "Switch", Operations: []service.Operation{
					{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
				}}},
			Endpoint: "http://127.0.0.1:9/services/" + id,
		}
	}
	opts := uddi.DurabilityOptions{Dir: t.TempDir(), Fsync: uddi.FsyncOff, SnapshotEvery: -1}
	leader, err := uddi.NewManualDurableServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetJournalCapacity(2 * n)
	srv, err := vsr.StartServerWith("127.0.0.1:0", leader, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBinaryEnabled(true)
	d := transport.NewDialer(nil)
	defer d.Close()
	pub := vsr.New(srv.URL())
	pub.SetDialer(d)
	pub.SetTTL(time.Hour)
	if _, err := pub.RegisterAll(ctx, regs); err != nil {
		t.Fatal(err)
	}
	if p := d.ProtocolFor(srv.URL()); p != "binary" {
		t.Fatalf("save rode %q, want binary", p)
	}
	oneDocument(t, "binary save", leader, n)

	follower := uddi.NewManualServer()
	defer follower.Close()
	node, err := New(Config{Self: "http://replica.invalid/uddi", Set: []string{srv.URL()},
		Registry: follower, Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	node.Follow(srv.URL())
	for follower.Seq() < leader.Seq() {
		if _, err := node.PullOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	oneDocument(t, "replica feed", follower, n)

	srv.Close()
	leader.Close() // no shutdown marker: the next boot replays the WAL
	replayed, err := uddi.NewManualDurableServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec := replayed.Durability().Recovery; rec == nil || rec.Replayed < n {
		t.Fatalf("boot recovery %+v, want %d WAL records replayed", rec, n)
	}
	oneDocument(t, "WAL replay", replayed, n)
	if err := replayed.Snapshot(); err != nil {
		t.Fatal(err)
	}
	replayed.Close()
	loaded, err := uddi.NewManualDurableServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if rec := loaded.Durability().Recovery; rec == nil || rec.SnapshotSeq == 0 || rec.Replayed != 0 {
		t.Fatalf("boot recovery %+v, want a snapshot load and no WAL replay", rec)
	}
	oneDocument(t, "snapshot load", loaded, n)
}

// oneDocument fails t unless reg holds n entries whose WSDL documents
// carry no address and are one string in memory.
func oneDocument(t *testing.T, stage string, reg *uddi.Server, n int) {
	t.Helper()
	es := reg.Find(uddi.Query{})
	if len(es) != n {
		t.Fatalf("%s: registry holds %d entries, want %d", stage, len(es), n)
	}
	doc := es[0].WSDL
	if doc == "" || strings.Contains(doc, "soap:address") {
		t.Fatalf("%s: entry document %q, want an interface document without an address", stage, doc)
	}
	copies := map[*byte]bool{}
	for _, e := range es {
		if e.WSDL != doc {
			t.Fatalf("%s: entry %s carries another document", stage, e.Name)
		}
		copies[unsafe.StringData(e.WSDL)] = true
	}
	if len(copies) != 1 {
		t.Errorf("%s: %d entries hold %d copies of their document, want 1", stage, n, len(copies))
	}
}
