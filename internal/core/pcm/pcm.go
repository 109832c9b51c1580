// Package pcm defines the Protocol Conversion Manager framework (§3.2):
// each middleware gets one PCM with two proxy directions —
//
//   - the Client Proxy (CP) "converts the interfaces of local services
//     into the VSG services": the Exporter helper scans the local
//     middleware for services and keeps them exported on the gateway;
//   - the Server Proxy (SP) "provides the interfaces of remote services
//     to the local services": the Importer helper watches the Virtual
//     Service Repository and keeps native stand-ins registered in the
//     local middleware for every remote service.
//
// Both directions are generated from service metadata rather than written
// per service, the role Javassist played in the paper's prototype.
// Concrete PCMs (internal/bridge/...) supply the middleware-specific
// List/Offer functions and get the scan loop and the watch follower here.
package pcm

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
// follows the repository watch (vsr.Follower) on the gateway's own
// repository client, so an idle importer sends only its parked long-poll.
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
	view    map[string]vsr.Remote // the registry as the follower last saw it
	offered map[string]func()
}

// Run follows the repository until ctx is cancelled, then removes every
// proxy it offered. The view is grounded from a page walk before the
// first round and after every resync, and kept by the change deltas. A
// ground reconciles every proxy with the view, a change delta only the
// service it names. Up, down and resync change nothing: while the watch
// is down every proxy stays. A failed Offer is retried every
// DefaultSyncInterval, from the view, until it succeeds or its service
// goes.
func (i *Importer) Run(ctx context.Context, gw *vsg.VSG) {
	i.mu.Lock()
	i.view = make(map[string]vsr.Remote)
	if i.offered == nil {
		i.offered = make(map[string]func())
	}
	i.mu.Unlock()

	var turn sync.Mutex // held by whoever reconciles: the follower or a retry
	failed := make(map[string]bool)
	retrying := false
	var settle func(id string)
	retry := func() {
		turn.Lock()
		defer turn.Unlock()
		retrying = false
		for id := range failed {
			if ctx.Err() == nil {
				settle(id)
			}
		}
	}
	settle = func(id string) {
		if i.reconcile(ctx, gw, id) == nil {
			delete(failed, id)
			return
		}
		failed[id] = true
		if !retrying {
			retrying = true
			time.AfterFunc(DefaultSyncInterval, retry)
		}
	}
	ground := func(ctx context.Context) (uint64, error) {
		walked := make(map[string]vsr.Remote)
		seq, err := gw.VSR().Walk(ctx, func(r vsr.Remote) { walked[r.Desc.ID] = r })
		if err != nil {
			return seq, err // a partial walk proves nothing gone
		}
		turn.Lock()
		defer turn.Unlock()
		i.mu.Lock()
		i.view = walked
		ids := append(slices.Collect(maps.Keys(walked)), slices.Collect(maps.Keys(i.offered))...)
		i.mu.Unlock()
		for _, id := range ids {
			settle(id)
		}
		return seq, nil
	}
	apply := func(d vsr.Delta) {
		turn.Lock()
		defer turn.Unlock()
		i.mu.Lock()
		switch d.Op {
		case vsr.DeltaAdd, vsr.DeltaUpdate:
			i.view[d.ServiceID] = d.Remote
		case vsr.DeltaDelete, vsr.DeltaExpire:
			delete(i.view, d.ServiceID)
		}
		i.mu.Unlock()
		if d.ServiceID != "" { // up, down and resync name no service
			settle(d.ServiceID)
		}
	}
	gw.VSR().Follow(ground, apply).Run(ctx)
	turn.Lock() // a retry under way finishes first; later ones see ctx done
	defer turn.Unlock()
	i.teardown()
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

// reconcile brings service id's proxy in line with the view: it offers
// one if the service is there, eligible and lacks one, and removes it if
// the service is gone or no longer eligible. The error is a failed Offer.
func (i *Importer) reconcile(ctx context.Context, gw *vsg.VSG, id string) error {
	i.mu.Lock()
	r, ok := i.view[id]
	want := ok && i.eligible(gw, r)
	remove, have := i.offered[id]
	switch {
	case want && !have:
		i.offered[id] = nil // counted now: the proxy may be visible before Offer returns
	case have && !want:
		delete(i.offered, id)
	}
	i.mu.Unlock()
	switch {
	case want && !have:
		remove, err := i.Offer(ctx, r)
		i.mu.Lock()
		if err != nil {
			delete(i.offered, id)
		} else {
			i.offered[id] = remove
		}
		i.mu.Unlock()
		return err
	case have && !want && remove != nil:
		remove()
	}
	return nil
}

// Invoker builds the Invoker a Server Proxy uses: calls on the local
// stand-in travel through the gateway to the service's endpoint as the
// importer's view has it now, so a service re-registered at a new
// endpoint keeps its proxy, and no call asks the repository. This is the
// reusable half of proxy auto-generation — the metadata (operation
// names, signatures) comes from the remote description, and the
// returned Invoker works for any interface.
func (i *Importer) Invoker(gw *vsg.VSG, remote vsr.Remote) service.Invoker {
	id := remote.Desc.ID
	return service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		i.mu.Lock()
		current, ok := i.view[id]
		i.mu.Unlock()
		if !ok {
			return service.Value{}, fmt.Errorf("%s: %w", id, service.ErrNoSuchService)
		}
		return gw.CallRemote(ctx, current, op, args)
	})
}

func (i *Importer) teardown() {
	i.mu.Lock()
	removes := make([]func(), 0, len(i.offered))
	for _, r := range i.offered {
		removes = append(removes, r)
	}
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
