// Package pcm defines the Protocol Conversion Manager framework (§3.2):
// each middleware gets one PCM with two proxy directions —
//
//   - the Client Proxy (CP) "converts the interfaces of local services
//     into the VSG services": the Exporter helper scans the local
//     middleware for services and keeps them exported on the gateway;
//   - the Server Proxy (SP) "provides the interfaces of remote services
//     to the local services": the Importer helper follows its gateway's
//     view of the Virtual Service Repository and keeps native stand-ins
//     registered in the local middleware for every remote service.
//
// Both directions are generated from service metadata rather than written
// per service, the role Javassist played in the paper's prototype.
// Concrete PCMs (internal/bridge/...) supply the middleware-specific
// List/Offer functions and get the scan loop and the proxy reconciler
// here; the registry view the reconciler reads is the gateway's own.
package pcm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

// PCM is one middleware's protocol conversion manager.
type PCM interface {
	// Middleware names the middleware this PCM converts ("jini", "havi",
	// "x10", "mail", "upnp").
	Middleware() string
	// Start attaches the PCM to its gateway and begins both proxy
	// directions. It must not block.
	Start(ctx context.Context, gw *vsg.VSG) error
	// Stop detaches the PCM and tears down its proxies.
	Stop() error
}

// DefaultSyncInterval is how often exporters rescan their middleware,
// and how soon an importer retries a failed Offer. Small enough that
// hot-plugged devices appear quickly in tests; a real deployment would
// subscribe to middleware events instead where possible.
const DefaultSyncInterval = 200 * time.Millisecond

// LocalService pairs a discovered local service with the client proxy
// (Invoker) that drives it over the native middleware.
type LocalService struct {
	Desc    service.Description
	Invoker service.Invoker
}

// Exporter reconciles local middleware services onto the gateway — the
// Client Proxy direction.
type Exporter struct {
	// Interval between scans; DefaultSyncInterval if zero.
	Interval time.Duration
	// List enumerates the local middleware's current services. It must
	// not return services that are themselves Server Proxies (tagged
	// imported), or export loops result.
	List func(ctx context.Context) ([]LocalService, error)

	mu       sync.Mutex
	exported map[string]bool
}

// Run reconciles until ctx is cancelled, then unexports everything it
// exported.
func (e *Exporter) Run(ctx context.Context, gw *vsg.VSG) {
	interval := e.Interval
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	e.mu.Lock()
	if e.exported == nil {
		e.exported = make(map[string]bool)
	}
	e.mu.Unlock()

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	e.sync(ctx, gw)
	for {
		select {
		case <-ctx.Done():
			e.teardown(gw)
			return
		case <-ticker.C:
			e.sync(ctx, gw)
		}
	}
}

func (e *Exporter) sync(ctx context.Context, gw *vsg.VSG) {
	locals, err := e.List(ctx)
	if err != nil {
		return // transient middleware failure; retry next tick
	}
	current := make(map[string]LocalService, len(locals))
	for _, l := range locals {
		if l.Desc.Imported() {
			continue
		}
		current[l.Desc.ID] = l
	}
	e.mu.Lock()
	var toExport []LocalService
	var toRemove []string
	for id, l := range current {
		if !e.exported[id] {
			toExport = append(toExport, l)
		}
	}
	for id := range e.exported {
		if _, ok := current[id]; !ok {
			toRemove = append(toRemove, id)
		}
	}
	e.mu.Unlock()

	for _, l := range toExport {
		if err := gw.Export(ctx, l.Desc, l.Invoker); err == nil {
			e.mu.Lock()
			e.exported[l.Desc.ID] = true
			e.mu.Unlock()
		}
	}
	for _, id := range toRemove {
		_ = gw.Unexport(ctx, id)
		e.mu.Lock()
		delete(e.exported, id)
		e.mu.Unlock()
	}
}

func (e *Exporter) teardown(gw *vsg.VSG) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	e.mu.Lock()
	ids := make([]string, 0, len(e.exported))
	for id := range e.exported {
		ids = append(ids, id)
	}
	e.exported = make(map[string]bool)
	e.mu.Unlock()
	for _, id := range ids {
		_ = gw.Unexport(ctx, id)
	}
}

// Importer keeps a Server Proxy in the local middleware for every
// eligible remote federation service — the Server Proxy direction. It
// subscribes to its gateway's view of the repository (vsg.Subscribe), so
// it sends the repository nothing of its own.
type Importer struct {
	// Middleware is the local middleware name; services native to it are
	// never imported (they are already reachable locally).
	Middleware string
	// Offer creates a Server Proxy in the local middleware for a remote
	// service and returns its teardown. The proxy must be tagged so the
	// middleware's own Exporter skips it (service.CtxImported), and should
	// call through Invoker.
	Offer func(ctx context.Context, remote vsr.Remote) (remove func(), err error)

	mu      sync.Mutex
	offered map[string]func()
}

// Run reconciles proxies with the gateway's view until ctx is cancelled,
// then removes every proxy it offered. The subscription marks pending
// each service in the view, then each one a change names (and whether it
// left, so one that left and came back gets a new proxy). Run reconciles
// them on its own goroutine, so a slow Offer never holds up the view. An
// outage changes nothing: the view keeps its last state, and every proxy
// stays. A failed Offer is marked pending again after DefaultSyncInterval.
func (i *Importer) Run(ctx context.Context, gw *vsg.VSG) {
	i.mu.Lock()
	i.offered = make(map[string]func())
	i.mu.Unlock()
	var mu sync.Mutex
	pending, wake := make(map[string]bool), make(chan struct{}, 1)
	mark := func(id string, gone bool) {
		mu.Lock()
		pending[id] = pending[id] || gone
		mu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	defer gw.Subscribe(mark)()
	var failed []string
	var retry <-chan time.Time
	for {
		mu.Lock()
		batch := pending
		pending = make(map[string]bool)
		mu.Unlock()
		for id, gone := range batch {
			if ctx.Err() == nil && i.reconcile(ctx, gw, id, gone) != nil {
				failed = append(failed, id)
			}
		}
		if len(failed) > 0 && retry == nil {
			retry = time.After(DefaultSyncInterval)
		}
		select {
		case <-ctx.Done():
			i.teardown()
			return
		case <-wake:
		case <-retry:
			for _, id := range failed {
				mark(id, false)
			}
			failed, retry = nil, nil
		}
	}
}

// eligible reports whether a remote service should get a local proxy.
func (i *Importer) eligible(gw *vsg.VSG, r vsr.Remote) bool {
	if r.Desc.Middleware == i.Middleware {
		return false // native here already
	}
	if r.Desc.Imported() {
		return false // someone's server proxy; never chain proxies
	}
	if r.Desc.Context[service.CtxNetwork] == gw.Name() {
		return false // exported from this very network
	}
	return true
}

// reconcile brings service id's proxy in line with the view: it removes
// the proxy if the service left the view meanwhile (gone), is not there or
// is not eligible, and offers one if the service is there, eligible and
// lacks one. The error is a failed Offer.
func (i *Importer) reconcile(ctx context.Context, gw *vsg.VSG, id string, gone bool) error {
	r, ok := gw.Viewed(id)
	want := ok && i.eligible(gw, r)
	i.mu.Lock()
	remove, had := i.offered[id]
	drop := had && (gone || !want)
	offer := want && (!had || drop)
	if offer {
		i.offered[id] = nil // counted now: the proxy may be visible before Offer returns
	} else if drop {
		delete(i.offered, id)
	}
	i.mu.Unlock()
	if drop && remove != nil {
		remove()
	}
	if !offer {
		return nil
	}
	remove, err := i.Offer(ctx, r)
	i.mu.Lock()
	if err != nil {
		delete(i.offered, id)
	} else {
		i.offered[id] = remove
	}
	i.mu.Unlock()
	return err
}

// Invoker builds the Invoker a Server Proxy uses: calls on the local
// stand-in travel through the gateway to the service's endpoint as the
// gateway's view has it now, so a service re-registered at a new
// endpoint keeps its proxy, and no call asks the repository. This is the
// reusable half of proxy auto-generation — the metadata (operation
// names, signatures) comes from the remote description, and the
// returned Invoker works for any interface.
func (i *Importer) Invoker(gw *vsg.VSG, remote vsr.Remote) service.Invoker {
	id := remote.Desc.ID
	return service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		current, ok := gw.Viewed(id)
		if !ok {
			return service.Value{}, fmt.Errorf("%s: %w", id, service.ErrNoSuchService)
		}
		return gw.CallRemote(ctx, current, op, args)
	})
}

// teardown removes every proxy, on Run's goroutine: no Offer is under way.
func (i *Importer) teardown() {
	i.mu.Lock()
	removes := i.offered
	i.offered = make(map[string]func())
	i.mu.Unlock()
	for _, r := range removes {
		r()
	}
}

// OfferedCount reports how many proxies the importer currently maintains,
// counting one whose Offer is under way.
func (i *Importer) OfferedCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.offered)
}

// Runner manages a PCM's background goroutines with clean shutdown, so
// concrete PCMs don't each reimplement lifecycle plumbing.
type Runner struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start returns the PCM's run context. The run context deliberately does
// NOT inherit ctx's cancellation: a PCM runs until Stop, while ctx only
// covers startup (discovery handshakes and the like). Values on ctx are
// preserved.
func (r *Runner) Start(ctx context.Context) context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	r.cancel = cancel
	return runCtx
}

// Go runs fn on a tracked goroutine.
func (r *Runner) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Stop cancels the run context and waits for all goroutines.
func (r *Runner) Stop() {
	r.mu.Lock()
	cancel := r.cancel
	r.cancel = nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	r.wg.Wait()
}

// ImportedContext returns the context map a Server Proxy registration
// should carry inside the local middleware's own metadata space.
func ImportedContext(originID string) map[string]string {
	return map[string]string{
		service.CtxImported: "true",
		service.CtxOrigin:   originID,
	}
}
