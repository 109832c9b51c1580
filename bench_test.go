// Benchmark harness for the reproduction. One benchmark (family) per
// experiment in DESIGN.md §4. The paper itself reports no quantitative
// results, so these benchmarks quantify the qualitative claims its text
// makes: bridged calls cost more than native ones but stay interactive;
// SOAP is small and cheap enough for appliance control; pairwise bridges
// scale quadratically while the framework scales linearly; HTTP long-poll
// loses to push on event latency; and the repository's change watch
// (E12) beats TTL polling on both staleness and registry load.
package homeconnect

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/bridge/jinipcm"
	"homeconnect/internal/core"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/events"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/replica"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/jini"
	"homeconnect/internal/service"
	"homeconnect/internal/sim"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/wsdl"
	"homeconnect/internal/x10"
)

// benchHome builds a simulated home once per benchmark.
func benchHome(b *testing.B, cfg sim.Config, minServices int) *sim.Home {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	h, err := sim.NewHome(ctx, cfg)
	if err != nil {
		b.Fatalf("NewHome: %v", err)
	}
	b.Cleanup(h.Close)
	if err := h.WaitForServices(ctx, minServices); err != nil {
		b.Fatalf("WaitForServices: %v", err)
	}
	return h
}

// --- E1 / Figure 1: any-to-any federation call ------------------------

// BenchmarkFigure1FederationCall measures one cross-middleware control
// call: a client on the Jini network reads the X10 lamp level through
// VSR resolution + SOAP + the X10 PCM.
func BenchmarkFigure1FederationCall(b *testing.B) {
	h := benchHome(b, sim.Config{Jini: true, X10: true}, 2)
	gw := h.Fed.Network("jini-net").Gateway()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "x10:lamp-1", "Level", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 / Figure 2: proxy module overhead ------------------------------

// BenchmarkFigure2NativeJiniCall is the baseline: a Jini client calling a
// Jini service directly, no framework involved.
func BenchmarkFigure2NativeJiniCall(b *testing.B) {
	h := benchHome(b, sim.Config{Jini: true}, 1)
	ctx := context.Background()
	reg, err := jini.Discover(ctx, h.Lookup.Addr())
	if err != nil {
		b.Fatal(err)
	}
	items, err := reg.Lookup(ctx, jini.ServiceTemplate{IfaceName: "Laserdisc"})
	if err != nil || len(items) != 1 {
		b.Fatalf("lookup: %v %v", items, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jini.Call(ctx, items[0].Proxy, "State", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ClientProxy measures the CP direction: the federation
// calling the native Jini Laserdisc through the Jini PCM.
func BenchmarkFigure2ClientProxy(b *testing.B) {
	h := benchHome(b, sim.Config{Jini: true, X10: true}, 2)
	// Call from the X10 network so the full SOAP path is exercised.
	gw := h.Fed.Network("x10-net").Gateway()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "jini:laserdisc-1", "State", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ServerProxy measures the SP direction: an unmodified
// Jini client calling the X10 lamp through the planted Jini proxy
// (Jini RMI-sim → PCM → SOAP → X10 PCM → CM11A → powerline).
func BenchmarkFigure2ServerProxy(b *testing.B) {
	h := benchHome(b, sim.Config{Jini: true, X10: true}, 2)
	ctx := context.Background()
	reg, err := jini.Discover(ctx, h.Lookup.Addr())
	if err != nil {
		b.Fatal(err)
	}
	var proxy jini.ProxyDescriptor
	deadline := time.Now().Add(15 * time.Second)
	for {
		items, err := reg.Lookup(ctx, jini.ServiceTemplate{IfaceName: "X10Lamp"})
		if err == nil && len(items) == 1 {
			proxy = items[0].Proxy
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("X10 lamp proxy never appeared in Jini lookup")
		}
		time.Sleep(25 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jini.Call(ctx, proxy, "Level", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3 / Figure 3: cross-middleware latency matrix ---------------------

// BenchmarkFigure3CrossMatrix measures a read call from each network to
// each other middleware's service — the latency matrix of the full
// prototype.
func BenchmarkFigure3CrossMatrix(b *testing.B) {
	h := benchHome(b, sim.Prototype(), 7)
	ctx := context.Background()
	targets := []struct {
		id, op string
	}{
		{"jini:laserdisc-1", "State"},
		{"x10:lamp-1", "Level"},
		{"havi:vcr-vcr1", "State"},
	}
	for _, netName := range h.Fed.Networks() {
		gw := h.Fed.Network(netName).Gateway()
		for _, target := range targets {
			b.Run(fmt.Sprintf("%s_to_%s", netName, target.id), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := gw.Call(ctx, target.id, target.op, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4 / Figure 4: Jini → X10 full conversion, write path --------------

// BenchmarkFigure4JiniToX10 measures the full Figure 4 transaction: a
// Jini client switching the X10 lamp, including CM11A serial handshakes
// and powerline frames.
func BenchmarkFigure4JiniToX10(b *testing.B) {
	h := benchHome(b, sim.Config{Jini: true, X10: true}, 2)
	ctx := context.Background()
	reg, err := jini.Discover(ctx, h.Lookup.Addr())
	if err != nil {
		b.Fatal(err)
	}
	var proxy jini.ProxyDescriptor
	deadline := time.Now().Add(15 * time.Second)
	for {
		items, err := reg.Lookup(ctx, jini.ServiceTemplate{IfaceName: "X10Lamp"})
		if err == nil && len(items) == 1 {
			proxy = items[0].Proxy
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("lamp proxy missing")
		}
		time.Sleep(25 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := "On"
		if i%2 == 1 {
			op = "Off"
		}
		if _, err := jini.Call(ctx, proxy, op, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 / Figure 5: Universal Remote Controller -------------------------

// BenchmarkFigure5RemotePress measures a remote keypress round trip:
// powerline frame → CM11A upload → X10 PCM binding → SOAP → Jini PCM →
// RMI-sim → Laserdisc state change.
func BenchmarkFigure5RemotePress(b *testing.B) {
	h := benchHome(b, sim.Prototype(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn, want := x10.On, "playing"
		if i%2 == 1 {
			fn, want = x10.Off, "stopped"
		}
		if err := h.Remote.Press(sim.RemoteLaserdiscUnit, fn); err != nil {
			b.Fatal(err)
		}
		for h.Laserdisc.State() != want {
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// --- E6 / §4.1: SOAP cost vs the RMI-sim baseline ------------------------

func benchCall() soap.Call {
	return soap.Call{
		Namespace: "urn:homeconnect:bench:svc",
		Operation: "SetLevel",
		Args: []soap.Arg{
			{Name: "level", Value: service.IntValue(42)},
			{Name: "fade", Value: service.BoolValue(true)},
		},
	}
}

// BenchmarkSOAPEncode measures envelope serialization and reports the
// message size the paper calls "light-weight for network".
func BenchmarkSOAPEncode(b *testing.B) {
	call := benchCall()
	data, err := soap.EncodeCall(call)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soap.EncodeCall(call); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer discards user metrics set before it.
	b.ReportMetric(float64(len(data)), "wire-B/op")
}

// BenchmarkSOAPDecode measures envelope parsing.
func BenchmarkSOAPDecode(b *testing.B) {
	data, err := soap.EncodeCall(benchCall())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soap.DecodeCall(data); err != nil {
			b.Fatal(err)
		}
	}
}

// echoRig builds two gateways on one repository with an integer echo
// service exported on the first — the minimal inter-VSG call shape shared
// by the wire and loopback round-trip benchmarks.
func echoRig(b *testing.B) (caller, exporter *vsg.VSG, warmArgs []service.Value) {
	b.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	gw1 := vsg.New("a", srv.URL())
	gw2 := vsg.New("b", srv.URL())
	if err := gw1.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw1.Close)
	if err := gw2.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw2.Close)
	ctx := context.Background()
	desc := service.Description{
		ID: "bench:echo", Name: "echo", Middleware: "bench",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Echo", Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindInt},
		}},
	}
	inv := service.InvokerFunc(func(_ context.Context, _ string, args []service.Value) (service.Value, error) {
		return args[0], nil
	})
	if err := gw1.Export(ctx, desc, inv); err != nil {
		b.Fatal(err)
	}
	arg := []service.Value{service.IntValue(7)}
	if _, err := gw2.Call(ctx, "bench:echo", "Echo", arg); err != nil {
		b.Fatal(err)
	}
	return gw2, gw1, arg
}

// BenchmarkSOAPRoundTrip measures a full SOAP/HTTP RPC between two
// gateways — the inter-VSG wire hop. Loopback is disabled so the paper's
// protocol stays the thing measured.
func BenchmarkSOAPRoundTrip(b *testing.B) {
	gw, _, arg := echoRig(b)
	gw.SetLoopbackEnabled(false)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "bench:echo", "Echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackCall measures the same resolved federation call taking
// the in-process loopback fast path: VSR resolution and argument
// validation still run, HTTP and the SOAP codec do not. Compare against
// BenchmarkSOAPRoundTrip (same rig) or BenchmarkFigure1FederationCall
// (the full prototype's wire path).
func BenchmarkLoopbackCall(b *testing.B) {
	gw, _, arg := echoRig(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "bench:echo", "Echo", arg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := gw.CallStats(); s.Loopback == 0 || s.Loopback != s.Outbound {
		b.Fatalf("loopback hits = %d of %d outbound calls; the fast path was not measured", s.Loopback, s.Outbound)
	}
}

// BenchmarkAuditAppend measures one audit record append on a memory-only
// log: canonical encode, chain hash, ring insert, and — every batch-size
// records — a Merkle seal, amortized into the mean.
func BenchmarkAuditAppend(b *testing.B) {
	l, err := audit.New(audit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	ev := audit.Event{
		Type: audit.CallAdmit, Face: "vsg:bench", Home: "home-a",
		Caller: "home-b", Service: "bench:echo", Op: "Echo", Detail: "wire",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(ev)
	}
	b.StopTimer()
	if l.Seq() != uint64(b.N) {
		b.Fatalf("recorded %d of %d appends", l.Seq(), b.N)
	}
}

// BenchmarkCallWithAudit is BenchmarkLoopbackCall with the audit plane
// on: the delta between the two is what auditing costs the call fast
// path (one call.admit append per dispatch). With auditing off that cost
// must be zero — BenchmarkLoopbackCall's 0 allocs/op stays gated.
func BenchmarkCallWithAudit(b *testing.B) {
	caller, exporter, arg := echoRig(b)
	l, err := audit.New(audit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	exporter.SetAudit(l)
	caller.SetAudit(l)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caller.Call(ctx, "bench:echo", "Echo", arg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if l.Seq() == 0 {
		b.Fatal("no audit records on the call path")
	}
}

// benchRegistryEntry is the registration payload the durability
// benchmarks write — a realistic service record, not a minimal one.
func benchRegistryEntry() uddi.Entry {
	return uddi.Entry{
		Name:        "bench:lamp-1",
		Description: "benchmark registration",
		AccessPoint: "http://gw.example/services/bench:lamp-1",
		TModel:      "tmodel:bench",
		Categories:  map[string]string{"room": "den", "kind": "bench"},
	}
}

// BenchmarkJournalAppend is the in-memory baseline for the WAL: one
// registry Save (shard write + change-journal ring append) with no
// persistence armed. BenchmarkWALAppend is gated against staying within
// 2 allocs/op of this.
func BenchmarkJournalAppend(b *testing.B) {
	reg := uddi.NewManualServer()
	b.Cleanup(reg.Close)
	entry := benchRegistryEntry()
	key := reg.Save(entry, time.Hour)
	entry.Key = key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Save(entry, time.Hour)
	}
	b.StopTimer()
	if reg.Seq() < uint64(b.N) {
		b.Fatalf("journal advanced %d of %d saves", reg.Seq(), b.N)
	}
}

// BenchmarkWALAppend is the same Save with the write-ahead log armed,
// fsync off: the added cost is one CRC-framed record encode into a
// reused scratch buffer and one fd write before acknowledgment.
func BenchmarkWALAppend(b *testing.B) {
	reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
		Dir: b.TempDir(), Fsync: uddi.FsyncOff, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(reg.Close)
	entry := benchRegistryEntry()
	entry.Key = reg.Save(entry, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Save(entry, time.Hour)
	}
	b.StopTimer()
	if d := reg.Durability(); d.Appends < uint64(b.N) || d.LastError != "" {
		b.Fatalf("WAL appended %d of %d saves (last error %q)", d.Appends, b.N, d.LastError)
	}
}

// BenchmarkDurableSaveAll measures one bulk registration of 256 device
// entries (the batch a gateway or perfbench preload sends) on a durable
// registry, fsync off: the batch is journaled and its WAL frames go to
// the segment in one write, reported as wal-writes/op (write system
// calls the process made, read from /proc/self/io where the kernel
// offers it).
func BenchmarkDurableSaveAll(b *testing.B) {
	reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
		Dir: b.TempDir(), Fsync: uddi.FsyncOff, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(reg.Close)
	entries := benchDeviceEntries(b, 256)
	reg.SaveAll(entries, time.Hour)
	before := reg.Durability().Appends
	writes0, countWrites := writeSyscalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.SaveAll(entries, time.Hour)
	}
	b.StopTimer()
	writes1, _ := writeSyscalls()
	if d := reg.Durability(); d.Appends-before != uint64(b.N*len(entries)) || d.LastError != "" {
		b.Fatalf("WAL appended %d of %d records (last error %q)", d.Appends-before, b.N*len(entries), d.LastError)
	}
	if countWrites {
		b.ReportMetric(float64(writes1-writes0)/float64(b.N), "wal-writes/op")
	}
}

// writeSyscalls returns the process's write system call count from
// /proc/self/io, and false where that file is not offered.
func writeSyscalls() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// BenchmarkWSDLGenerate renders the WSDL document of one echo service
// (the perfbench call workload's four-operation interface) at its
// endpoint: the work behind every registration's description. Services
// that share an interface share one memoized render, so this is the
// address element's escape and one copy.
func BenchmarkWSDLGenerate(b *testing.B) {
	it := service.Interface{Name: "Echo", Operations: []service.Operation{
		{Name: "Ping", Output: service.KindVoid},
		{Name: "EchoInt", Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindInt},
		{Name: "EchoStr", Inputs: []service.Parameter{{Name: "s", Type: service.KindString}}, Output: service.KindString},
		{Name: "EchoBytes", Inputs: []service.Parameter{{Name: "b", Type: service.KindBytes}}, Output: service.KindBytes},
	}}
	const loc = "http://127.0.0.1:9/services/bench:echo-001"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wsdl.Generate(it, loc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootReplay measures recovery: opening a data directory whose
// WAL holds ~1024 records and rebuilding registry state, journal ring
// and sequence from it — the fixed cost a restart pays before serving.
func BenchmarkBootReplay(b *testing.B) {
	dir := b.TempDir()
	opts := uddi.DurabilityOptions{Dir: dir, Fsync: uddi.FsyncOff, SnapshotEvery: -1}
	seed, err := uddi.NewManualDurableServer(opts)
	if err != nil {
		b.Fatal(err)
	}
	entry := benchRegistryEntry()
	for i := 0; i < 1024; i++ {
		e := entry
		e.Name = fmt.Sprintf("bench:dev-%d", i)
		seed.Save(e, time.Hour)
	}
	seed.Close() // sync + close, no clean marker: every boot replays
	// Recovery logs one line per unclean open — b.N times here.
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(os.Stderr) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := uddi.NewManualDurableServer(opts)
		if err != nil {
			b.Fatal(err)
		}
		if reg.Len() != 1024 {
			b.Fatalf("replay restored %d of 1024 entries", reg.Len())
		}
		reg.Close()
	}
}

// BenchmarkSnapshot measures one registry snapshot at 1024 device
// entries, the unit of work every durable vsrd repeats each
// SnapshotEvery records: the record scan and the streamed, CRC-framed
// write, including the snapshot file's fsync (the WAL itself runs fsync
// off). Between snapshots one entry is renewed, untimed, so each
// snapshot covers a new journal position.
func BenchmarkSnapshot(b *testing.B) {
	reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
		Dir: b.TempDir(), Fsync: uddi.FsyncOff, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(reg.Close)
	entries := benchDeviceEntries(b, 1024)
	for _, e := range entries {
		reg.Save(e, time.Hour)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg.Save(entries[i%len(entries)], time.Hour)
		b.StartTimer()
		if err := reg.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := reg.Durability(); d.Snapshots < uint64(b.N) || d.LastError != "" {
		b.Fatalf("wrote %d of %d snapshots (last error %q)", d.Snapshots, b.N, d.LastError)
	}
}

// benchDeviceEntries builds n registry entries of the device shape the
// perfbench workloads register: vsr.EntryFor of a one-operation Switch,
// about 1.3 KB encoded.
func benchDeviceEntries(b *testing.B, n int) []uddi.Entry {
	b.Helper()
	entries := make([]uddi.Entry, n)
	for i := range entries {
		id := fmt.Sprintf("dev%d:d-%05d", i%8, i)
		var err error
		entries[i], err = vsr.EntryFor(service.Description{
			ID: id, Name: id, Middleware: fmt.Sprintf("dev%d", i%8),
			Interface: service.Interface{Name: "Switch", Operations: []service.Operation{
				{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
			}},
		}, "http://127.0.0.1:9/services/"+id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return entries
}

// BenchmarkStateTransfer measures one replica attach to a leader holding
// 1024 device entries, through both codec ends of the binary registry
// face: the leader encodes the state, the in-process HCB1 lane carries
// it, and a fresh replica decodes and installs it (non-durable, so no
// WAL reset). A fresh replica each op keeps record reuse out of the
// figure: it measures the transfer, not what the replica already held.
func BenchmarkStateTransfer(b *testing.B) {
	leaderReg := uddi.NewManualServer()
	b.Cleanup(leaderReg.Close)
	for _, e := range benchDeviceEntries(b, 1024) {
		leaderReg.Save(e, time.Hour)
	}
	srv, err := vsr.StartServerWith("127.0.0.1:0", leaderReg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	srv.SetBinaryEnabled(true)
	d := transport.NewDialer(nil)
	b.Cleanup(d.Close)
	ctx := context.Background()
	attach := func() *uddi.Server {
		reg := uddi.NewManualServer()
		node, err := replica.New(replica.Config{Self: "http://replica.invalid/uddi",
			Set: []string{srv.URL()}, Registry: reg, Dialer: d})
		if err != nil {
			b.Fatal(err)
		}
		if err := node.JoinAs(ctx, srv.URL()); err != nil {
			b.Fatal(err)
		}
		return reg
	}
	reg := attach() // negotiates the binary link outside the timing
	if n := reg.Len(); n != 1024 || d.ProtocolFor(srv.URL()) != "binary" {
		b.Fatalf("attached %d of 1024 entries over %q", n, d.ProtocolFor(srv.URL()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg.Close()
		b.StartTimer()
		reg = attach()
	}
	b.StopTimer()
	reg.Close()
}

// BenchmarkReplicaFeedCatchUp measures a durable replica catching up on
// 1024 device changes through the replication feed: repl_watch rounds
// over the in-process HCB1 lane, each a byte-bounded batch the leader
// encodes into its frame buffer, applied under the leader's sequence
// numbers and written to the replica's WAL (fsync off) in one write per
// round. A fresh replica each op, following the leader from seq 0,
// keeps the figure to the feed; rounds/op counts the repl_watch rounds.
func BenchmarkReplicaFeedCatchUp(b *testing.B) {
	const n = 1024
	leaderReg := uddi.NewManualServer()
	b.Cleanup(leaderReg.Close)
	leaderReg.SetJournalCapacity(2 * n)
	leaderReg.SaveAll(benchDeviceEntries(b, n), time.Hour)
	srv, err := vsr.StartServerWith("127.0.0.1:0", leaderReg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	srv.SetBinaryEnabled(true)
	d := transport.NewDialer(nil)
	b.Cleanup(d.Close)
	ctx := context.Background()
	dir := b.TempDir()
	rounds := 0
	catchUp := func() {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		reg, err := uddi.NewManualDurableServer(uddi.DurabilityOptions{
			Dir: dir, Fsync: uddi.FsyncOff, SnapshotEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		node, err := replica.New(replica.Config{Self: "http://replica.invalid/uddi",
			Set: []string{srv.URL()}, Registry: reg, Dialer: d})
		if err != nil {
			b.Fatal(err)
		}
		node.Follow(srv.URL())
		b.StartTimer()
		for reg.Seq() < n {
			if _, err := node.PullOnce(ctx); err != nil {
				b.Fatal(err)
			}
			rounds++
		}
		b.StopTimer()
		if reg.Len() != n || reg.Durability().Appends != n {
			b.Fatalf("replica holds %d entries, %d WAL records, want %d", reg.Len(), reg.Durability().Appends, n)
		}
		reg.Close()
		b.StartTimer()
	}
	catchUp() // negotiates the binary link outside the timing
	if p := d.ProtocolFor(srv.URL()); p != "binary" {
		b.Fatalf("feed rode %q, want binary", p)
	}
	rounds = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		catchUp()
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkRegistryResident measures what a registry holds per entry: a
// fresh in-memory replica catches up on 1024 vsr.EntryFor device entries
// through the replication feed (repl_watch rounds over the in-process
// HCB1 lane, as in BenchmarkReplicaFeedCatchUp but without a WAL), and
// resident-B/entry is the live heap the caught-up replica adds, read
// after a collection, per entry it holds. The devices share one
// interface, so their entries share one copy of its WSDL document and
// the figure is each entry's own fields and index.
func BenchmarkRegistryResident(b *testing.B) {
	const n = 1024
	leaderReg := uddi.NewManualServer()
	b.Cleanup(leaderReg.Close)
	leaderReg.SetJournalCapacity(2 * n)
	leaderReg.SaveAll(benchDeviceEntries(b, n), time.Hour)
	srv, err := vsr.StartServerWith("127.0.0.1:0", leaderReg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	srv.SetBinaryEnabled(true)
	d := transport.NewDialer(nil)
	b.Cleanup(d.Close)
	ctx := context.Background()
	catchUp := func() *uddi.Server {
		reg := uddi.NewManualServer()
		node, err := replica.New(replica.Config{Self: "http://replica.invalid/uddi",
			Set: []string{srv.URL()}, Registry: reg, Dialer: d})
		if err != nil {
			b.Fatal(err)
		}
		node.Follow(srv.URL())
		for reg.Seq() < n {
			if _, err := node.PullOnce(ctx); err != nil {
				b.Fatal(err)
			}
		}
		return reg
	}
	catchUp().Close() // negotiates the binary link outside the timing
	if p := d.ProtocolFor(srv.URL()); p != "binary" {
		b.Fatalf("feed rode %q, want binary", p)
	}
	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var resident int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heap()
		b.StartTimer()
		reg := catchUp()
		b.StopTimer()
		resident += heap() - before
		if reg.Len() != n {
			b.Fatalf("replica holds %d entries, want %d", reg.Len(), n)
		}
		reg.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(resident)/float64(b.N*n), "resident-B/entry")
}

// BenchmarkGatewayColdStart measures a fresh gateway's first contact
// with a registry of 256 device entries: start with the watch on, wait
// for the watch to come up, resolve every service once, close. The
// gateway grounds its registry view from one page walk when the watch
// comes up, so the resolves are hits in it; inquiries/op counts the
// registry finds they still cost (256 when every first resolve is a
// lookup).
func BenchmarkGatewayColdStart(b *testing.B) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	entries := benchDeviceEntries(b, 256)
	for _, e := range entries {
		srv.Registry().Save(e, time.Hour)
	}
	ctx := context.Background()
	coldStart := func() {
		gw := vsg.New("cold", srv.URL())
		if err := gw.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		deadline := time.Now().Add(5 * time.Second)
		for !gw.Health().WatchActive {
			if time.Now().After(deadline) {
				b.Fatal("watch never came up")
			}
			time.Sleep(50 * time.Microsecond)
		}
		for _, e := range entries {
			if _, err := gw.Resolve(ctx, e.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
	coldStart() // warms the shared transport and the WSDL memo
	_, before := srv.Registry().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart()
	}
	b.StopTimer()
	_, after := srv.Registry().Stats()
	b.ReportMetric(float64(after-before)/float64(b.N), "inquiries/op")
}

// BenchmarkRegistryFind measures one in-process registry inquiry, the
// work behind every uncached gateway resolve, at two registry sizes:
// by service ID (the homeconnect.id category vsr.Lookup sends; one hit)
// and by middleware (a quarter of the registry). Find probes each
// shard's category postings, so by-ID cost stays flat as the registry
// grows; a regression to a full scan grows it with the entry count.
func BenchmarkRegistryFind(b *testing.B) {
	middlewares := []string{"jini", "havi", "upnp", "x10"}
	for _, n := range []int{1024, 4096} {
		reg := uddi.NewManualServer()
		b.Cleanup(reg.Close)
		for i := 0; i < n; i++ {
			e := benchRegistryEntry()
			mw := middlewares[i%len(middlewares)]
			e.Name = fmt.Sprintf("%s:dev-%d", mw, i)
			e.Categories = map[string]string{
				"homeconnect.id":         e.Name,
				"homeconnect.middleware": mw,
				"room":                   "den",
			}
			reg.Save(e, time.Hour)
		}
		byID := make([]uddi.Query, n)
		for i := range byID {
			id := fmt.Sprintf("%s:dev-%d", middlewares[i%len(middlewares)], i)
			byID[i] = uddi.Query{Categories: map[string]string{"homeconnect.id": id}}
		}
		b.Run(fmt.Sprintf("n=%d/by-id", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := reg.Find(byID[i%n]); len(got) != 1 {
					b.Fatalf("find %v = %d entries", byID[i%n].Categories, len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/by-middleware", n), func(b *testing.B) {
			q := uddi.Query{Categories: map[string]string{"homeconnect.middleware": "havi"}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := reg.Find(q); len(got) != n/len(middlewares) {
					b.Fatalf("find by middleware = %d entries, want %d", len(got), n/len(middlewares))
				}
			}
		})
	}
}

// BenchmarkRMISimRoundTrip is the binary-protocol baseline for E6: the
// same echo shape over the Jini RMI simulation.
func BenchmarkRMISimRoundTrip(b *testing.B) {
	ex := jini.NewExporter()
	if err := ex.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	spec := jini.InterfaceSpec{Name: "Echo", Methods: []jini.MethodSpec{
		{Name: "Echo", Params: []string{"int"}, Return: "int"},
	}}
	proxy := ex.Export(spec, jini.InvocableFunc(func(_ string, args []any) (any, error) {
		return args[0], nil
	}))
	ctx := context.Background()
	args := []any{int64(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jini.Call(ctx, proxy, "Echo", args); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7 / §4.2: event delivery, long-poll vs push ------------------------

// BenchmarkEventLongPoll measures publish→deliver latency when the
// consumer long-polls over HTTP (the best plain client/server HTTP can
// do, per §4.2).
func BenchmarkEventLongPoll(b *testing.B) {
	hub, client := benchHub(b)
	ctx := context.Background()
	var cursor uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type out struct {
			n    int
			next uint64
		}
		done := make(chan out, 1)
		go func(since uint64) {
			evs, next, _ := client.Poll(ctx, since, "bench", 5*time.Second)
			done <- out{len(evs), next}
		}(cursor)
		// Give the poll time to park server-side, as a steady-state
		// poller would be parked when the event fires.
		time.Sleep(100 * time.Microsecond)
		hub.Publish(service.Event{Source: "bench", Topic: "bench", Seq: uint64(i)})
		o := <-done
		if o.n == 0 {
			b.Fatal("poll returned no events")
		}
		cursor = o.next
	}
}

// BenchmarkEventPush measures publish→deliver latency over a push
// subscription (HTTP callback).
func BenchmarkEventPush(b *testing.B) {
	hub, client := benchHub(b)
	ctx := context.Background()
	var mu sync.Mutex
	delivered := make(chan struct{}, 64)
	recv, err := events.NewPushReceiver(func(service.Event) {
		mu.Lock()
		mu.Unlock()
		delivered <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	sid, err := client.Subscribe(ctx, recv.URL(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = client.Unsubscribe(ctx, sid) }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Publish(service.Event{Source: "bench", Topic: "bench", Seq: uint64(i)})
		<-delivered
	}
}

func benchHub(b *testing.B) (*events.Hub, *events.Client) {
	b.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0") // unused, keeps symmetry cheap
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	gw := vsg.New("bench", srv.URL())
	if err := gw.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	return gw.Hub(), &events.Client{BaseURL: gw.EventsURL()}
}

// --- E8 / §5: framework vs pairwise bridge scaling -----------------------

// BenchmarkBridgeScaling measures steady-state cross-middleware call
// latency as the number of connected middleware grows, and reports the
// adapter counts: N for the framework vs N(N-1)/2 pairwise.
func BenchmarkBridgeScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			fed, err := core.NewFederation()
			if err != nil {
				b.Fatal(err)
			}
			defer fed.Close()
			// E8 measures cross-middleware wire scaling (adapter counts
			// and TCP behavior); keep loopback out of the measurement.
			fed.SetLoopback(false)
			ctx := context.Background()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("mw%d", i)
				net, err := fed.AddNetwork(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Attach(ctx, newBenchPCM(name)); err != nil {
					b.Fatal(err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				remotes, err := fed.Services(ctx)
				if err == nil && len(remotes) == n {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("services missing")
				}
				time.Sleep(10 * time.Millisecond)
			}
			gw := fed.Network("mw0").Gateway()
			arg := []service.Value{service.StringValue("x")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("mw%d:echo", 1+i%(n-1))
				if _, err := gw.Call(ctx, id, "Echo", arg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "framework-adapters")
			b.ReportMetric(float64(n*(n-1)/2), "pairwise-bridges")
		})
	}
}

// benchPCM is the E8 synthetic middleware adapter.
type benchPCM struct {
	name   string
	runner pcm.Runner
}

func newBenchPCM(name string) *benchPCM { return &benchPCM{name: name} }

func (s *benchPCM) Middleware() string { return s.name }

func (s *benchPCM) Start(ctx context.Context, gw *vsg.VSG) error {
	runCtx := s.runner.Start(ctx)
	exp := &pcm.Exporter{List: func(context.Context) ([]pcm.LocalService, error) {
		desc := service.Description{
			ID: s.name + ":echo", Name: "echo", Middleware: s.name,
			Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
				{Name: "Echo", Inputs: []service.Parameter{{Name: "v", Type: service.KindString}}, Output: service.KindString},
			}},
		}
		inv := service.InvokerFunc(func(_ context.Context, _ string, args []service.Value) (service.Value, error) {
			return args[0], nil
		})
		return []pcm.LocalService{{Desc: desc, Invoker: inv}}, nil
	}}
	s.runner.Go(func() { exp.Run(runCtx, gw) })
	return nil
}

func (s *benchPCM) Stop() error {
	s.runner.Stop()
	return nil
}

// --- E9 / §3.3: VSR registration and discovery ---------------------------

// BenchmarkVSRRegister measures service publication (WSDL generation +
// UDDI save).
func BenchmarkVSRRegister(b *testing.B) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	v := vsr.New(srv.URL())
	ctx := context.Background()
	desc := service.Description{
		ID: "bench:svc", Name: "svc", Middleware: "bench",
		Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Register(ctx, desc, "http://h/1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVSRFind measures repository inquiries without gateway caching.
func BenchmarkVSRFind(b *testing.B) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	v := vsr.New(srv.URL())
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		desc := service.Description{
			ID: fmt.Sprintf("bench:svc%d", i), Name: "svc", Middleware: "bench",
			Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
				{Name: "Ping", Output: service.KindVoid},
			}},
		}
		if _, err := v.Register(ctx, desc, "http://h/1"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Lookup(ctx, "bench:svc7"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVSRFindCached measures the same resolution through a gateway's
// resolve cache — the caching ablation of DESIGN.md §7.
func BenchmarkVSRFindCached(b *testing.B) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	gw := vsg.New("bench", srv.URL())
	if err := gw.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	ctx := context.Background()
	desc := service.Description{
		ID: "bench:svc", Name: "svc", Middleware: "bench",
		Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
	v := vsr.New(srv.URL())
	if _, err := v.Register(ctx, desc, "http://h/1"); err != nil {
		b.Fatal(err)
	}
	gw.SetCacheTTL(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Resolve(ctx, "bench:svc"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: VSR watch subsystem — push vs poll ----------------------------

// BenchmarkVSRWatchPropagate measures change-propagation latency through
// the repository's watch stream: one registration update → journal →
// long-poll wake → delta on the watcher's channel. This is the push
// counterpart of the TTL staleness window (up to the full cache TTL)
// that gateways paid under the poll model.
func BenchmarkVSRWatchPropagate(b *testing.B) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	v := vsr.New(srv.URL())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	desc := service.Description{
		ID: "bench:svc", Name: "svc", Middleware: "bench",
		Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindVoid},
		}},
	}
	if _, err := v.Register(ctx, desc, "http://h/1"); err != nil {
		b.Fatal(err)
	}
	ch, err := v.Watch(ctx, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Drain the stream-up signal and the pre-registration delta.
	for d := range ch {
		if d.Op == vsr.DeltaAdd || d.Op == vsr.DeltaUpdate {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Register(ctx, desc, "http://h/1"); err != nil {
			b.Fatal(err)
		}
		for d := range ch {
			if d.Op == vsr.DeltaUpdate || d.Op == vsr.DeltaAdd {
				break
			}
		}
	}
}

// BenchmarkVSRBatchRefresh measures a refresh round for a gateway with N
// exports: the paper's model re-registers each export individually (N
// repository round trips); the batched API renews them all in one.
func BenchmarkVSRBatchRefresh(b *testing.B) {
	const nExports = 16
	setup := func(b *testing.B) (*vsr.VSR, []vsr.Registration, func()) {
		srv, err := vsr.StartServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		v := vsr.New(srv.URL())
		regs := make([]vsr.Registration, nExports)
		for i := range regs {
			regs[i] = vsr.Registration{
				Desc: service.Description{
					ID: fmt.Sprintf("bench:svc%d", i), Name: "svc", Middleware: "bench",
					Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
						{Name: "Ping", Output: service.KindVoid},
					}},
				},
				Endpoint: "http://h/1",
			}
		}
		return v, regs, srv.Close
	}
	b.Run("PerExport", func(b *testing.B) {
		v, regs, done := setup(b)
		defer done()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range regs {
				if _, err := v.Register(ctx, r.Desc, r.Endpoint); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(nExports, "round-trips/op")
	})
	b.Run("Batched", func(b *testing.B) {
		v, regs, done := setup(b)
		defer done()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.RegisterAll(ctx, regs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1, "round-trips/op")
	})
}

// BenchmarkVSRFindCachedChurn re-runs the E9 cached-resolution benchmark
// under registry churn: a background publisher keeps re-registering other
// services while the gateway resolves one target in a loop. With the
// watch-invalidated cache the target entry stays valid — deltas for other
// services don't touch it — so steady-state resolution makes zero
// repository inquiries regardless of churn or how long the run lasts;
// the TTL sub-benchmark pays a repository inquiry every TTL expiry, and
// shrinking the TTL to bound staleness multiplies that load.
func BenchmarkVSRFindCachedChurn(b *testing.B) {
	run := func(b *testing.B, watch bool) {
		srv, err := vsr.StartServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		gw := vsg.New("bench", srv.URL())
		gw.SetWatchEnabled(watch)
		gw.SetCacheTTL(200 * time.Millisecond)
		if err := gw.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		ctx := context.Background()
		v := vsr.New(srv.URL())
		mkDesc := func(id string) service.Description {
			return service.Description{
				ID: id, Name: "svc", Middleware: "bench",
				Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
					{Name: "Ping", Output: service.KindVoid},
				}},
			}
		}
		if _, err := v.Register(ctx, mkDesc("bench:target"), "http://h/1"); err != nil {
			b.Fatal(err)
		}
		// Churn: other services keep changing in the background.
		churnCtx, stopChurn := context.WithCancel(ctx)
		defer stopChurn()
		go func() {
			for i := 0; churnCtx.Err() == nil; i++ {
				_, _ = v.Register(churnCtx, mkDesc(fmt.Sprintf("bench:churn%d", i%8)), "http://h/2")
				time.Sleep(time.Millisecond)
			}
		}()
		// Warm the cache, and give a watch-enabled gateway time to see
		// the stream come up so hits stop consulting the TTL.
		if _, err := gw.Resolve(ctx, "bench:target"); err != nil {
			b.Fatal(err)
		}
		if watch {
			deadline := time.Now().Add(5 * time.Second)
			for !gw.Health().WatchActive {
				if time.Now().After(deadline) {
					b.Fatal("watch never came up")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		_, findsBefore := srv.Registry().Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gw.Resolve(ctx, "bench:target"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_, findsAfter := srv.Registry().Stats()
		b.ReportMetric(float64(findsAfter-findsBefore)/float64(b.N), "registry-finds/op")
	}
	b.Run("WatchInvalidated", func(b *testing.B) { run(b, true) })
	b.Run("TTL", func(b *testing.B) { run(b, false) })
}

// --- E10 / §5: UPnP PCM -----------------------------------------------

// BenchmarkUPnPControl measures a federation call into a UPnP device
// through the UPnP PCM (double SOAP: inter-VSG, then UPnP control).
func BenchmarkUPnPControl(b *testing.B) {
	h := benchHome(b, sim.Config{UPnP: true, X10: true}, 2)
	gw := h.Fed.Network("x10-net").Gateway()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "upnp:porch-SwitchPower", "GetStatus", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: scene engine — declarative cross-middleware composition --------

// sceneRig is a two-network federation with an echo service on network
// "b" and the scene engine triggered from network "a"'s hub, so every
// scene action crosses the full VSR + SOAP path between gateways.
func sceneRig(b *testing.B) (*core.Federation, *events.Hub, chan scene.Record) {
	b.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fed.Close)
	ctx := context.Background()
	netA, err := fed.AddNetwork("a")
	if err != nil {
		b.Fatal(err)
	}
	netB, err := fed.AddNetwork("b")
	if err != nil {
		b.Fatal(err)
	}
	desc := service.Description{
		ID: "bench:echo", Name: "echo", Middleware: "bench",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Echo", Inputs: []service.Parameter{{Name: "v", Type: service.KindString}}, Output: service.KindString},
		}},
	}
	inv := service.InvokerFunc(func(_ context.Context, _ string, args []service.Value) (service.Value, error) {
		return args[0], nil
	})
	if err := netB.Gateway().Export(ctx, desc, inv); err != nil {
		b.Fatal(err)
	}
	done := make(chan scene.Record, 1024)
	fed.Scenes().SetRunHook(func(r scene.Record) { done <- r })
	return fed, netA.Gateway().Hub(), done
}

func benchScene(name string) *scene.Scene {
	return &scene.Scene{
		Name:     name,
		Triggers: []scene.Trigger{{Topic: "bench.tick", Network: "a"}},
		Guards:   []scene.Guard{{Left: "${trigger.payload.v}", Op: scene.OpNe, Right: ""}},
		Steps: []scene.Step{{
			Kind: scene.StepCall, Name: "echo", Service: "bench:echo", Op: "Echo",
			Timeout: 10 * time.Second,
			Args:    []scene.Arg{{Type: service.KindString, Text: "${trigger.payload.v}"}},
		}},
	}
}

// BenchmarkSceneTrigger measures one full composition firing: event
// publish → trigger match → guard → templated cross-gateway SOAP call →
// run accounting.
func BenchmarkSceneTrigger(b *testing.B) {
	fed, hub, done := sceneRig(b)
	eng := fed.Scenes()
	if err := eng.Load(benchScene("bench")); err != nil {
		b.Fatal(err)
	}
	if err := eng.Start("bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Publish(service.Event{
			Source:  "bench",
			Topic:   "bench.tick",
			Payload: map[string]service.Value{"v": service.StringValue("x")},
		})
		rec := <-done
		if rec.Outcome != scene.OutcomeCompleted {
			b.Fatalf("outcome = %s, %v", rec.Outcome, rec.Err)
		}
	}
}

// BenchmarkSceneFanOut measures one event fanning out to N armed scenes,
// each making its own cross-gateway call — the many-compositions load
// shape of a home full of automations.
func BenchmarkSceneFanOut(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			fed, hub, done := sceneRig(b)
			eng := fed.Scenes()
			for i := 0; i < n; i++ {
				if err := eng.Load(benchScene(fmt.Sprintf("bench%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.StartAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub.Publish(service.Event{
					Source:  "bench",
					Topic:   "bench.tick",
					Payload: map[string]service.Value{"v": service.StringValue("x")},
				})
				for j := 0; j < n; j++ {
					rec := <-done
					if rec.Outcome != scene.OutcomeCompleted {
						b.Fatalf("outcome = %s, %v", rec.Outcome, rec.Err)
					}
				}
			}
		})
	}
}

// --- Ablation: metadata-driven proxy generation cost ---------------------

// BenchmarkProxyGeneration measures converting Jini interface metadata to
// a federation interface — the per-discovery cost of automatic proxy
// generation.
func BenchmarkProxyGeneration(b *testing.B) {
	spec := jini.InterfaceSpec{
		Name: "Laserdisc",
		Methods: []jini.MethodSpec{
			{Name: "Play"},
			{Name: "Stop"},
			{Name: "SetChapter", Params: []string{"int"}},
			{Name: "Chapter", Return: "int"},
			{Name: "State", Return: "string"},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jinipcm.InterfaceFromSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: inter-home federation (PR 4) ----------------------------------

// benchFleet builds n lightweight peered homes: each is a home-named
// federation with one network and one exported echo service
// ("bench:svc-<i>"), and every pair of homes peers in both directions.
// It returns the federations in home order.
func benchFleet(b *testing.B, n int) []*core.Federation {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	homes := make([]*core.Federation, n)
	for i := range homes {
		fed, err := core.NewHomeFederation(fmt.Sprintf("home-%d", i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(fed.Close)
		homes[i] = fed
		net, err := fed.AddNetwork("net")
		if err != nil {
			b.Fatal(err)
		}
		id := fmt.Sprintf("bench:svc-%d", i+1)
		desc := service.Description{
			ID: id, Name: id, Middleware: "bench",
			Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
				{Name: "Ping", Output: service.KindInt},
			}},
		}
		inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
			return service.IntValue(int64(42)), nil
		})
		if err := net.Gateway().Export(ctx, desc, inv); err != nil {
			b.Fatal(err)
		}
	}
	for i, fed := range homes {
		for j, other := range homes {
			if i == j {
				continue
			}
			if err := fed.Peer(other.PeerURL()); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Wait until every home resolves every other home's service.
	for i, fed := range homes {
		gw := fed.Network("net").Gateway()
		for j := range homes {
			if i == j {
				continue
			}
			id := fmt.Sprintf("home-%d/bench:svc-%d", j+1, j+1)
			for {
				if _, err := gw.Resolve(ctx, id); err == nil {
					break
				}
				select {
				case <-ctx.Done():
					b.Fatalf("home-%d never saw %s: %v", i+1, id, ctx.Err())
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
	}
	return homes
}

// BenchmarkPeerPropagate measures inter-home change-propagation latency:
// one registration update in home A → A's journal → A-side watch round →
// scoped re-registration in home B → delta on a B-side watcher. This is
// the federation counterpart of BenchmarkVSRWatchPropagate, and the bound
// behind "callable from home B within one watch round trip".
func BenchmarkPeerPropagate(b *testing.B) {
	homes := benchFleet(b, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v := vsr.New(homes[1].VSRURL())
	ch, err := v.Watch(ctx, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := vsr.New(homes[0].VSRURL())
	desc := service.Description{
		ID: "bench:svc-1", Name: "bench:svc-1", Middleware: "bench",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindInt},
		}},
	}
	// Drain until the stream is up and quiet.
	for drained := false; !drained; {
		select {
		case <-ch:
		case <-time.After(200 * time.Millisecond):
			drained = true
		}
	}
	endpoint := homes[0].Network("net").Gateway().EndpointFor("bench:svc-1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Register(ctx, desc, endpoint); err != nil {
			b.Fatal(err)
		}
		for {
			d, ok := <-ch
			if !ok {
				b.Fatal("watch closed")
			}
			if (d.Op == vsr.DeltaAdd || d.Op == vsr.DeltaUpdate) && d.ServiceID == "home-1/bench:svc-1" {
				break
			}
		}
	}
}

// BenchmarkCrossHomeCall measures one away-from-home control call: home
// B's gateway invoking a service imported from home A, addressed by its
// scoped ID. Both homes share this process, but the home boundary forces
// the call onto the wire — the path a real remote call takes.
func BenchmarkCrossHomeCall(b *testing.B) {
	homes := benchFleet(b, 2)
	gw := homes[1].Network("net").Gateway()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "home-1/bench:svc-1", "Ping", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederationHomesScale holds the O(1) resolve claim: with N
// homes fully meshed, the per-call cost of a cross-home call from home 1
// must not grow with N — resolution rides the local (push-maintained)
// registry copy, never a wide-area lookup. N=1 is the in-home baseline
// (a local call, no wire).
func BenchmarkFederationHomesScale(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("homes=%d", n), func(b *testing.B) {
			homes := benchFleet(b, n)
			gw := homes[0].Network("net").Gateway()
			target := fmt.Sprintf("home-%d/bench:svc-%d", n, n)
			if n == 1 {
				target = "bench:svc-1"
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gw.Call(ctx, target, "Ping", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: binary fast-path wire (PR 9) ----------------------------------

// benchSecureFleet is benchFleet with authentication enforced: every
// home gets a generated identity and the fleet trusts itself mutually,
// so framework links negotiate the session-keyed binary fast path.
func benchSecureFleet(b *testing.B, n int) []*core.Federation {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	homes := make([]*core.Federation, n)
	ids := make([]*identity.Identity, n)
	for i := range homes {
		name := fmt.Sprintf("home-%d", i+1)
		id, err := identity.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		fed, err := core.NewHomeFederation(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(fed.Close)
		if err := fed.SetIdentity(id); err != nil {
			b.Fatal(err)
		}
		homes[i], ids[i] = fed, id
		net, err := fed.AddNetwork("net")
		if err != nil {
			b.Fatal(err)
		}
		svcID := fmt.Sprintf("bench:svc-%d", i+1)
		desc := service.Description{
			ID: svcID, Name: svcID, Middleware: "bench",
			Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
				{Name: "Ping", Output: service.KindInt},
			}},
		}
		inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
			return service.IntValue(int64(42)), nil
		})
		if err := net.Gateway().Export(ctx, desc, inv); err != nil {
			b.Fatal(err)
		}
	}
	for i, fed := range homes {
		for j := range homes {
			if i == j {
				continue
			}
			if err := fed.TrustHome(ids[j].Home(), ids[j].PublicKey()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i, fed := range homes {
		for j, other := range homes {
			if i == j {
				continue
			}
			if err := fed.Peer(other.PeerURL()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i, fed := range homes {
		gw := fed.Network("net").Gateway()
		for j := range homes {
			if i == j {
				continue
			}
			id := fmt.Sprintf("home-%d/bench:svc-%d", j+1, j+1)
			for {
				if _, err := gw.Resolve(ctx, id); err == nil {
					break
				}
				select {
				case <-ctx.Done():
					b.Fatalf("home-%d never saw %s: %v", i+1, id, ctx.Err())
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
	}
	return homes
}

// BenchmarkBinaryCrossHomeCall is BenchmarkCrossHomeCall with the
// session-keyed binary fast path negotiated: the per-call cost is one
// MAC'd length-prefixed frame each way instead of a signed SOAP/HTTP
// exchange. Target: < 10µs/op (the gate in BENCH_pr9.json).
func BenchmarkBinaryCrossHomeCall(b *testing.B) {
	homes := benchSecureFleet(b, 2)
	gw := homes[1].Network("net").Gateway()
	ctx := context.Background()
	// Warm one call so the session handshake happens outside the
	// measured region, then insist the fast path actually negotiated —
	// a silent SOAP fallback would invalidate the number.
	if _, err := gw.Call(ctx, "home-1/bench:svc-1", "Ping", nil); err != nil {
		b.Fatal(err)
	}
	if !wireHasBinary(homes[1].WireStats()) {
		b.Fatalf("binary fast path not negotiated: %v", homes[1].WireStats())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Call(ctx, "home-1/bench:svc-1", "Ping", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// wireHasBinary reports whether any link in ws negotiated the fast path.
func wireHasBinary(ws transport.WireStats) bool {
	for _, ls := range ws {
		if ls.Protocol == "binary" {
			return true
		}
	}
	return false
}

// BenchmarkBinaryPeerPropagate is BenchmarkPeerPropagate over the
// authenticated fleet: registration update in home 1 → watch round over
// the binary wire → delta on a home-2-side watcher. Target: < 100µs/op.
func BenchmarkBinaryPeerPropagate(b *testing.B) {
	homes := benchSecureFleet(b, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// With authentication on, each repository's /uddi face is private to
	// its own home: both the watcher and the registering client must
	// carry their home's credentials.
	watchD := transport.NewDialer(homes[1].Auth())
	defer watchD.Close()
	v := vsr.New(homes[1].VSRURL())
	v.SetDialer(watchD)
	ch, err := v.Watch(ctx, 0)
	if err != nil {
		b.Fatal(err)
	}
	regD := transport.NewDialer(homes[0].Auth())
	defer regD.Close()
	a := vsr.New(homes[0].VSRURL())
	a.SetDialer(regD)
	desc := service.Description{
		ID: "bench:svc-1", Name: "bench:svc-1", Middleware: "bench",
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Ping", Output: service.KindInt},
		}},
	}
	for drained := false; !drained; {
		select {
		case <-ch:
		case <-time.After(200 * time.Millisecond):
			drained = true
		}
	}
	endpoint := homes[0].Network("net").Gateway().EndpointFor("bench:svc-1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Register(ctx, desc, endpoint); err != nil {
			b.Fatal(err)
		}
		for {
			d, ok := <-ch
			if !ok {
				b.Fatal("watch closed")
			}
			if (d.Op == vsr.DeltaAdd || d.Op == vsr.DeltaUpdate) && d.ServiceID == "home-1/bench:svc-1" {
				break
			}
		}
	}
}

// BenchmarkSessionHandshake prices the signed mutual handshake that
// replaces per-operation signatures: one full dialer↔listener exchange
// (two signatures, two verifications, one ECDH agreement, key
// derivation). Paid once per peer pair per session lifetime instead of
// twice per call.
func BenchmarkSessionHandshake(b *testing.B) {
	aID, err := identity.Generate("cottage")
	if err != nil {
		b.Fatal(err)
	}
	bID, err := identity.Generate("apartment")
	if err != nil {
		b.Fatal(err)
	}
	a := identity.NewAuth("cottage")
	if err := a.SetIdentity(aID); err != nil {
		b.Fatal(err)
	}
	if err := a.Trust(bID.Home(), bID.PublicKey()); err != nil {
		b.Fatal(err)
	}
	bb := identity.NewAuth("apartment")
	if err := bb.SetIdentity(bID); err != nil {
		b.Fatal(err)
	}
	if err := bb.Trust(aID.Home(), aID.PublicKey()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hc, err := a.NewSessionClient()
		if err != nil {
			b.Fatal(err)
		}
		accept, _, err := bb.AcceptSession(hc.Hello())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hc.Finish(accept); err != nil {
			b.Fatal(err)
		}
	}
}
