package pcm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

func echoDesc(id, middleware string) service.Description {
	return service.Description{
		ID: id, Name: id, Middleware: middleware,
		Interface: service.Interface{Name: "Echo", Operations: []service.Operation{
			{Name: "Echo", Inputs: []service.Parameter{{Name: "v", Type: service.KindString}}, Output: service.KindString},
		}},
	}
}

var echoInvoker = service.InvokerFunc(func(_ context.Context, _ string, args []service.Value) (service.Value, error) {
	return args[0], nil
})

func newGateway(t *testing.T, name string) (*vsr.Server, *vsg.VSG) {
	t.Helper()
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	gw := vsg.New(name, srv.URL())
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return srv, gw
}

func TestExporterReconciles(t *testing.T) {
	_, gw := newGateway(t, "net1")
	var mu sync.Mutex
	services := []LocalService{{Desc: echoDesc("mw:a", "mw"), Invoker: echoInvoker}}

	exp := &Exporter{
		Interval: 20 * time.Millisecond,
		List: func(context.Context) ([]LocalService, error) {
			mu.Lock()
			defer mu.Unlock()
			return append([]LocalService(nil), services...), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { exp.Run(ctx, gw); close(done) }()

	waitFor(t, func() bool { return len(gw.Exports()) == 1 })

	// A second service appears in the middleware.
	mu.Lock()
	services = append(services, LocalService{Desc: echoDesc("mw:b", "mw"), Invoker: echoInvoker})
	mu.Unlock()
	waitFor(t, func() bool { return len(gw.Exports()) == 2 })

	// The first one disappears.
	mu.Lock()
	services = services[1:]
	mu.Unlock()
	waitFor(t, func() bool {
		exports := gw.Exports()
		return len(exports) == 1 && exports[0] == "mw:b"
	})

	// Teardown unexports everything.
	cancel()
	<-done
	if len(gw.Exports()) != 0 {
		t.Errorf("exports after teardown: %v", gw.Exports())
	}
}

func TestExporterSkipsImported(t *testing.T) {
	_, gw := newGateway(t, "net1")
	imported := echoDesc("mw:sp", "mw")
	imported.Context = ImportedContext("other:origin")
	exp := &Exporter{
		Interval: 20 * time.Millisecond,
		List: func(context.Context) ([]LocalService, error) {
			return []LocalService{
				{Desc: imported, Invoker: echoInvoker},
				{Desc: echoDesc("mw:real", "mw"), Invoker: echoInvoker},
			}, nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go exp.Run(ctx, gw)
	waitFor(t, func() bool { return len(gw.Exports()) == 1 })
	if gw.Exports()[0] != "mw:real" {
		t.Errorf("exported %v, want only mw:real", gw.Exports())
	}
	// Give it another cycle to be sure the server proxy never leaks out.
	time.Sleep(60 * time.Millisecond)
	if len(gw.Exports()) != 1 {
		t.Errorf("exports grew: %v", gw.Exports())
	}
}

func TestExporterToleratesListErrors(t *testing.T) {
	_, gw := newGateway(t, "net1")
	var mu sync.Mutex
	fail := true
	exp := &Exporter{
		Interval: 20 * time.Millisecond,
		List: func(context.Context) ([]LocalService, error) {
			mu.Lock()
			defer mu.Unlock()
			if fail {
				return nil, errors.New("middleware down")
			}
			return []LocalService{{Desc: echoDesc("mw:a", "mw"), Invoker: echoInvoker}}, nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go exp.Run(ctx, gw)
	time.Sleep(60 * time.Millisecond)
	if len(gw.Exports()) != 0 {
		t.Fatal("exported during failure")
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	waitFor(t, func() bool { return len(gw.Exports()) == 1 })
}

func TestImporterReconciles(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	// A remote service on another network/middleware.
	remote := vsr.New(srv.URL())
	ctx := context.Background()
	otherDesc := echoDesc("other:x", "other")
	otherDesc.Context = map[string]string{service.CtxNetwork: "net2"}
	key, err := remote.Register(ctx, otherDesc, "http://10.0.0.9/services/other:x")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	offered := make(map[string]bool)
	imp := &Importer{
		Middleware: "mw",
		Offer: func(_ context.Context, r vsr.Remote) (func(), error) {
			mu.Lock()
			offered[r.Desc.ID] = true
			mu.Unlock()
			return func() {
				mu.Lock()
				delete(offered, r.Desc.ID)
				mu.Unlock()
			}, nil
		},
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { imp.Run(runCtx, gw); close(done) }()

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return offered["other:x"]
	})
	if imp.OfferedCount() != 1 {
		t.Errorf("OfferedCount = %d", imp.OfferedCount())
	}

	// The remote service vanishes → proxy removed.
	if err := remote.Unregister(ctx, key); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !offered["other:x"]
	})

	cancel()
	<-done
}

func TestImporterEligibility(t *testing.T) {
	srv, gw := newGateway(t, "net1")
	remote := vsr.New(srv.URL())
	ctx := context.Background()

	// Same middleware: never imported.
	same := echoDesc("mw:native", "mw")
	if _, err := remote.Register(ctx, same, "http://h/1"); err != nil {
		t.Fatal(err)
	}
	// Already a server proxy somewhere: never chained.
	sp := echoDesc("other:sp", "other")
	sp.Context = ImportedContext("mw:native")
	if _, err := remote.Register(ctx, sp, "http://h/2"); err != nil {
		t.Fatal(err)
	}
	// Exported from this very network: already reachable locally.
	local := echoDesc("other:local", "other")
	local.Context = map[string]string{service.CtxNetwork: "net1"}
	if _, err := remote.Register(ctx, local, "http://h/3"); err != nil {
		t.Fatal(err)
	}
	// Genuinely foreign: imported.
	foreign := echoDesc("other:far", "other")
	foreign.Context = map[string]string{service.CtxNetwork: "net9"}
	if _, err := remote.Register(ctx, foreign, "http://h/4"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	offered := make(map[string]bool)
	imp := &Importer{
		Middleware: "mw",
		Offer: func(_ context.Context, r vsr.Remote) (func(), error) {
			mu.Lock()
			offered[r.Desc.ID] = true
			mu.Unlock()
			return func() {}, nil
		},
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go imp.Run(runCtx, gw)

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return offered["other:far"]
	})
	mu.Lock()
	defer mu.Unlock()
	for _, banned := range []string{"mw:native", "other:sp", "other:local"} {
		if offered[banned] {
			t.Errorf("ineligible service %s was imported", banned)
		}
	}
}

func TestRunnerLifecycle(t *testing.T) {
	var r Runner
	ctx := r.Start(context.Background())
	ran := make(chan struct{})
	r.Go(func() {
		<-ctx.Done()
		close(ran)
	})
	r.Stop()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not cancel the run context")
	}
	// Stop is idempotent.
	r.Stop()
}

func TestRunnerDetachesFromStartContext(t *testing.T) {
	var r Runner
	parent, cancel := context.WithCancel(context.Background())
	runCtx := r.Start(parent)
	cancel()
	select {
	case <-runCtx.Done():
		t.Fatal("run context inherited parent cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	r.Stop()
	if runCtx.Err() == nil {
		t.Fatal("Stop did not cancel run context")
	}
}

func TestImportedContext(t *testing.T) {
	ctx := ImportedContext("x10:lamp-1")
	if ctx[service.CtxImported] != "true" || ctx[service.CtxOrigin] != "x10:lamp-1" {
		t.Errorf("ImportedContext = %v", ctx)
	}
	d := service.Description{ID: "a", Middleware: "m", Interface: service.Interface{Name: "I"}, Context: ctx}
	if !d.Imported() {
		t.Error("description with ImportedContext not marked imported")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
