package vsr

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/uddi"
	"homeconnect/internal/wsdl"
)

func lampDesc() service.Description {
	return service.Description{
		ID:         "jini:lamp-1",
		Name:       "Living room lamp",
		Middleware: "jini",
		Interface: service.Interface{
			Name: "Lamp",
			Operations: []service.Operation{
				{Name: "On", Output: service.KindVoid},
				{Name: "Off", Output: service.KindVoid},
				{Name: "SetLevel", Inputs: []service.Parameter{{Name: "level", Type: service.KindInt}}, Output: service.KindVoid},
				{Name: "Level", Output: service.KindInt},
			},
		},
		Context: map[string]string{"room": "living"},
	}
}

func newVSR(t *testing.T) (*Server, *VSR) {
	t.Helper()
	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, New(srv.URL())
}

func TestRegisterLookupRoundTrip(t *testing.T) {
	_, v := newVSR(t)
	ctx := context.Background()
	const endpoint = "http://10.0.0.1:8800/services/jini:lamp-1"

	key, err := v.Register(ctx, lampDesc(), endpoint)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if key == "" {
		t.Fatal("empty key")
	}
	got, err := v.Lookup(ctx, "jini:lamp-1")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got.Endpoint != endpoint {
		t.Errorf("endpoint = %q", got.Endpoint)
	}
	want := lampDesc()
	if got.Desc.ID != want.ID || got.Desc.Middleware != want.Middleware || got.Desc.Name != want.Name {
		t.Errorf("desc = %+v", got.Desc)
	}
	if !got.Desc.Interface.Equal(want.Interface) {
		t.Errorf("interface mismatch: %+v", got.Desc.Interface)
	}
	if got.Desc.Context["room"] != "living" {
		t.Errorf("context = %v", got.Desc.Context)
	}
}

func TestLookupMissing(t *testing.T) {
	_, v := newVSR(t)
	_, err := v.Lookup(context.Background(), "nope:missing")
	if !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("want ErrNoSuchService, got %v", err)
	}
}

func TestFindFilters(t *testing.T) {
	_, v := newVSR(t)
	ctx := context.Background()
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	vcr := service.Description{
		ID:         "havi:vcr-1",
		Middleware: "havi",
		Interface: service.Interface{Name: "VCR", Operations: []service.Operation{
			{Name: "Play", Output: service.KindVoid},
		}},
		Context: map[string]string{"room": "living"},
	}
	if _, err := v.Register(ctx, vcr, "http://h/2"); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 2},
		{"by middleware", Query{Middleware: "jini"}, 1},
		{"by interface", Query{Interface: "VCR"}, 1},
		{"by context", Query{Context: map[string]string{"room": "living"}}, 2},
		{"by context miss", Query{Context: map[string]string{"room": "kitchen"}}, 0},
		{"by id", Query{ID: "havi:vcr-1"}, 1},
		{"combined", Query{Middleware: "jini", Interface: "Lamp"}, 1},
		{"combined miss", Query{Middleware: "jini", Interface: "VCR"}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := v.Find(ctx, tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				t.Errorf("Find = %d results, want %d", len(got), tt.want)
			}
		})
	}
}

func TestReregisterRefreshesNotDuplicates(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	if n := srv.Registry().Len(); n != 1 {
		t.Errorf("registry has %d entries, want 1", n)
	}
}

func TestTTLExpiry(t *testing.T) {
	srv, v := newVSR(t)
	v.SetTTL(time.Second)
	ctx := context.Background()
	// Mutex-guarded fake clock: the registry janitor reads it
	// concurrently with the test advancing it.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	srv.Registry().SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	if _, err := v.Lookup(ctx, "jini:lamp-1"); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("expired service still found: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	_, v := newVSR(t)
	ctx := context.Background()
	key, err := v.Register(ctx, lampDesc(), "http://h/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Unregister(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Lookup(ctx, "jini:lamp-1"); !errors.Is(err, service.ErrNoSuchService) {
		t.Errorf("unregistered service still found: %v", err)
	}
}

func TestRegisterInvalidDescription(t *testing.T) {
	_, v := newVSR(t)
	if _, err := v.Register(context.Background(), service.Description{}, "http://h/1"); err == nil {
		t.Error("invalid description accepted")
	}
}

// nextDelta reads one delta or fails the test.
func nextDelta(t *testing.T, ch <-chan Delta) Delta {
	t.Helper()
	select {
	case d, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed")
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("no delta within 10s")
	}
	panic("unreachable")
}

func TestWatchStreamsDeltas(t *testing.T) {
	_, v := newVSR(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ch, err := v.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := nextDelta(t, ch); d.Op != DeltaUp {
		t.Fatalf("first delta = %+v, want up", d)
	}

	const endpoint = "http://10.0.0.1:8800/services/jini:lamp-1"
	key, err := v.Register(ctx, lampDesc(), endpoint)
	if err != nil {
		t.Fatal(err)
	}
	d := nextDelta(t, ch)
	if d.Op != DeltaAdd || d.ServiceID != "jini:lamp-1" {
		t.Fatalf("add delta = %+v", d)
	}
	// Change deltas carry the full resolution: description and endpoint.
	if d.Remote.Endpoint != endpoint || !d.Remote.Desc.Interface.Equal(lampDesc().Interface) {
		t.Errorf("add delta remote = %+v", d.Remote)
	}

	// Re-registration (a refresh, or a re-home) is an update.
	if _, err := v.Register(ctx, lampDesc(), "http://10.0.0.2:8800/services/jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	d = nextDelta(t, ch)
	if d.Op != DeltaUpdate || d.Remote.Endpoint != "http://10.0.0.2:8800/services/jini:lamp-1" {
		t.Fatalf("update delta = %+v", d)
	}

	if err := v.Unregister(ctx, key); err != nil {
		t.Fatal(err)
	}
	d = nextDelta(t, ch)
	if d.Op != DeltaDelete || d.ServiceID != "jini:lamp-1" {
		t.Fatalf("delete delta = %+v", d)
	}

	// Cancelling the context closes the stream.
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed after cancel")
		}
	}
}

func TestWatchResumeFromSince(t *testing.T) {
	srv, v := newVSR(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	seq := srv.Registry().Seq()
	vcr := service.Description{
		ID:         "havi:vcr-1",
		Middleware: "havi",
		Interface: service.Interface{Name: "VCR", Operations: []service.Operation{
			{Name: "Play", Output: service.KindVoid},
		}},
	}
	if _, err := v.Register(ctx, vcr, "http://h/2"); err != nil {
		t.Fatal(err)
	}

	// Resuming after the lamp's registration sees only the VCR.
	ch, err := v.Watch(ctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	if d := nextDelta(t, ch); d.Op != DeltaUp {
		t.Fatalf("first delta = %+v", d)
	}
	if d := nextDelta(t, ch); d.Op != DeltaAdd || d.ServiceID != "havi:vcr-1" {
		t.Fatalf("resumed delta = %+v", d)
	}
}

func TestWatchDownAndRecovery(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	v := New(srv.URL())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := v.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := nextDelta(t, ch); d.Op != DeltaUp {
		t.Fatalf("first delta = %+v", d)
	}
	srv.Close()
	d := nextDelta(t, ch)
	if d.Op != DeltaDown || d.Err == nil {
		t.Fatalf("after repository death: %+v", d)
	}
}

func TestRegisterAll(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	var regs []Registration
	for i := 0; i < 3; i++ {
		desc := lampDesc()
		desc.ID = desc.ID[:len(desc.ID)-1] + string(rune('1'+i))
		regs = append(regs, Registration{Desc: desc, Endpoint: "http://h/1"})
	}
	keys, err := v.RegisterAll(ctx, regs)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for _, r := range regs {
		if _, err := v.Lookup(ctx, r.Desc.ID); err != nil {
			t.Errorf("lookup %s after batch: %v", r.Desc.ID, err)
		}
	}
	if n := srv.Registry().Len(); n != 3 {
		t.Errorf("registry has %d entries, want 3", n)
	}
	// Empty and invalid batches.
	if keys, err := v.RegisterAll(ctx, nil); err != nil || keys != nil {
		t.Errorf("empty batch = %v, %v", keys, err)
	}
	if _, err := v.RegisterAll(ctx, []Registration{{}}); err == nil {
		t.Error("invalid description accepted in batch")
	}
}

// TestFollowerStep drives the follower one round at a time: Up with the
// first round, each change once, a single Down for a repeated failure —
// and, across an in-place epoch bump, a change numbered at the cursor
// that the new regime's replay must still deliver.
func TestFollowerStep(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	if err := srv.Registry().SetEpoch(1, srv.URL()); err != nil {
		t.Fatal(err)
	}
	var got []string
	f := v.Follow(func(context.Context) (uint64, error) { return 0, nil },
		func(d Delta) { got = append(got, string(d.Op)+" "+d.ServiceID) })
	step := func(wantErr bool) {
		t.Helper()
		if err := f.Step(ctx, 0); (err != nil) != wantErr {
			t.Fatalf("step: err = %v, want error %v", err, wantErr)
		}
	}
	if _, err := v.Register(ctx, lampDesc(), "http://h/1"); err != nil {
		t.Fatal(err)
	}
	step(false)
	step(false)
	if seq, epoch := f.Cursor(); seq != 1 || epoch != 1 {
		t.Fatalf("cursor = (%d, %d), want (1, 1)", seq, epoch)
	}

	// A snapshot raised the cursor to 2 in epoch 1; then the repository
	// moves to epoch 2 at seq 1, and its seq 2 is a record the old cursor
	// never covered.
	f.raise(2)
	if err := srv.Registry().SetEpoch(2, srv.URL()); err != nil {
		t.Fatal(err)
	}
	vcr := lampDesc()
	vcr.ID = "jini:vcr-1"
	if _, err := v.Register(ctx, vcr, "http://h/2"); err != nil {
		t.Fatal(err)
	}
	step(false)
	if seq, epoch := f.Cursor(); seq != 2 || epoch != 2 {
		t.Fatalf("cursor after the epoch bump = (%d, %d), want (2, 2)", seq, epoch)
	}

	want := []string{"up ", "add jini:lamp-1", "add jini:vcr-1"}
	if len(got) != len(want) {
		t.Fatalf("deltas = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deltas = %q, want %q", got, want)
		}
	}

	// The first failure may read differently from the later ones (a
	// pooled connection dies before the dial is refused); once the
	// failure repeats unchanged, it is not reported again.
	srv.Close()
	step(true)
	step(true)
	n := len(got)
	step(true)
	if n == len(want) || len(got) != n || got[len(want)] != "down " {
		t.Fatalf("deltas after the repository died = %q, want Down once per distinct failure", got[len(want):])
	}
}

// TestEntryForLeavesAddressToAccessPoint: the document EntryFor publishes
// is the interface's alone — no soap:address, the same text for every
// service of the interface — and the endpoint travels in the access
// point. An entry published in the older located form (the address in
// the document too, as testdata's device entries are) still resolves to
// its access point, and to the document's address when it has none.
func TestEntryForLeavesAddressToAccessPoint(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	a, err := EntryFor(lampDesc(), "http://10.0.0.1:8800/services/jini:lamp-1")
	if err != nil {
		t.Fatal(err)
	}
	other := lampDesc()
	other.ID = "jini:lamp-2"
	b, err := EntryFor(other, "http://10.0.0.2:8800/services/jini:lamp-2")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(a.WSDL, "soap:address") || a.WSDL != b.WSDL {
		t.Fatalf("EntryFor documents differ or carry an address:\n%s\n%s", a.WSDL, b.WSDL)
	}
	if a.AccessPoint != "http://10.0.0.1:8800/services/jini:lamp-1" {
		t.Errorf("access point = %q", a.AccessPoint)
	}

	it := service.Interface{Name: "Switch", Operations: []service.Operation{
		{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
	}}
	for _, tc := range []struct{ id, accessPoint, located, want string }{
		{"dev0:d-00000", "http://127.0.0.1:9/services/dev0:d-00000", "http://127.0.0.1:9/services/dev0:d-00000", "http://127.0.0.1:9/services/dev0:d-00000"},
		{"dev1:d-00001", "http://10.0.0.9:9/services/dev1:d-00001", "http://127.0.0.1:9/services/dev1:d-00001", "http://10.0.0.9:9/services/dev1:d-00001"},
		{"dev2:d-00002", "", "http://127.0.0.1:9/services/dev2:d-00002", "http://127.0.0.1:9/services/dev2:d-00002"},
	} {
		doc, err := wsdl.Generate(it, tc.located)
		if err != nil {
			t.Fatal(err)
		}
		srv.Registry().Save(uddi.Entry{Key: "uuid:svc-" + tc.id, Name: tc.id, Description: tc.id,
			AccessPoint: tc.accessPoint, TModel: "Switch", WSDL: string(doc),
			Categories: map[string]string{catServiceID: tc.id, catMiddleware: "dev"}}, time.Hour)
		got, err := v.Lookup(ctx, tc.id)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", tc.id, err)
		}
		if got.Endpoint != tc.want || !got.Desc.Interface.Equal(it) {
			t.Errorf("located entry %s resolved to %q with %+v, want %q", tc.id, got.Endpoint, got.Desc.Interface, tc.want)
		}
	}
}
