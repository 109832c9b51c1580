// Package jinipcm is the Protocol Conversion Manager for the Jini
// simulation — one of the four PCMs in the paper's prototype (§4.1).
//
// Client Proxy direction: the PCM polls the Jini lookup service, converts
// each registered service's InterfaceSpec into a federation interface,
// and exports an Invoker that drives the service over RMI-sim — "the CP
// converts Jini services into SOAP services".
//
// Server Proxy direction: for every remote federation service, the PCM
// exports a Jini remote object forwarding to the gateway and registers it
// in the lookup service, so unmodified Jini clients discover and call it
// natively — "the SP converts SOAP services into Jini services".
package jinipcm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/jini"
	"homeconnect/internal/service"
)

// Entry names used on Jini registrations.
const (
	// EntryName is the attribute carrying the service's short name.
	EntryName = "name"
	// entryImported tags Server Proxy registrations.
	entryImported = service.CtxImported
	// entryOrigin carries the origin federation ID on Server Proxies.
	entryOrigin = service.CtxOrigin
)

// proxyLease is the lease requested for Server Proxy registrations.
const proxyLease = 30 * time.Second

// PCM bridges one Jini network (one lookup service) to the federation.
type PCM struct {
	lookupAddr string
	runner     pcm.Runner

	mu       sync.Mutex
	reg      *jini.Registrar
	exporter *jini.Exporter

	exp *pcm.Exporter
	imp *pcm.Importer
}

// New builds a PCM for the lookup service at lookupAddr.
func New(lookupAddr string) *PCM {
	return &PCM{lookupAddr: lookupAddr}
}

// Middleware implements pcm.PCM.
func (p *PCM) Middleware() string { return "jini" }

// Start implements pcm.PCM.
func (p *PCM) Start(ctx context.Context, gw *vsg.VSG) error {
	runCtx := p.runner.Start(ctx)
	reg, err := jini.Discover(ctx, p.lookupAddr)
	if err != nil {
		return fmt.Errorf("jinipcm: %w", err)
	}
	exporter := jini.NewExporter()
	if err := exporter.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("jinipcm: exporter: %w", err)
	}
	p.mu.Lock()
	p.reg = reg
	p.exporter = exporter
	p.mu.Unlock()

	p.exp = &pcm.Exporter{List: p.listLocal}
	p.imp = &pcm.Importer{Middleware: "jini", Offer: func(ctx context.Context, r vsr.Remote) (func(), error) {
		return p.offer(ctx, gw, r)
	}}
	p.runner.Go(func() { p.exp.Run(runCtx, gw) })
	p.runner.Go(func() { p.imp.Run(runCtx, gw) })
	return nil
}

// Stop implements pcm.PCM.
func (p *PCM) Stop() error {
	p.runner.Stop()
	p.mu.Lock()
	exporter := p.exporter
	p.mu.Unlock()
	if exporter != nil {
		exporter.Close()
	}
	return nil
}

// listLocal enumerates Jini services for the Client Proxy direction.
func (p *PCM) listLocal(ctx context.Context) ([]pcm.LocalService, error) {
	p.mu.Lock()
	reg := p.reg
	p.mu.Unlock()
	items, err := reg.Lookup(ctx, jini.ServiceTemplate{})
	if err != nil {
		return nil, err
	}
	var out []pcm.LocalService
	for _, item := range items {
		if hasEntry(item.Attrs, entryImported, "true") {
			continue // a Server Proxy we (or a peer PCM) planted
		}
		desc, err := describe(item)
		if err != nil {
			continue // unconvertible registration; leave it Jini-only
		}
		out = append(out, pcm.LocalService{Desc: desc, Invoker: clientProxy(item.Proxy, desc.Interface)})
	}
	return out, nil
}

// describe converts a Jini registration into a federation description —
// the metadata step of automatic proxy generation.
func describe(item jini.ServiceItem) (service.Description, error) {
	iface, err := InterfaceFromSpec(item.Proxy.Iface)
	if err != nil {
		return service.Description{}, err
	}
	name := entryValue(item.Attrs, EntryName)
	if name == "" {
		name = strings.ToLower(item.Proxy.Iface.Name) + "-" + item.ID.String()[:8]
	}
	desc := service.Description{
		ID:         "jini:" + name,
		Name:       name,
		Middleware: "jini",
		Interface:  iface,
		Context:    map[string]string{"jini.serviceID": item.ID.String()},
	}
	for _, e := range item.Attrs {
		if e.Name != EntryName {
			desc.Context["jini.attr."+e.Name] = e.Value
		}
	}
	return desc, nil
}

// InterfaceFromSpec converts Jini interface metadata to the service
// model.
func InterfaceFromSpec(spec jini.InterfaceSpec) (service.Interface, error) {
	iface := service.Interface{Name: spec.Name}
	for _, m := range spec.Methods {
		op := service.Operation{Name: m.Name, Output: service.KindVoid}
		if m.Return != "" {
			k := service.KindFromString(m.Return)
			if !k.Valid() {
				return service.Interface{}, fmt.Errorf("jinipcm: method %s: bad return kind %q", m.Name, m.Return)
			}
			op.Output = k
		}
		for i, pk := range m.Params {
			k := service.KindFromString(pk)
			if !k.Valid() || k == service.KindVoid {
				return service.Interface{}, fmt.Errorf("jinipcm: method %s: bad param kind %q", m.Name, pk)
			}
			op.Inputs = append(op.Inputs, service.Parameter{Name: fmt.Sprintf("arg%d", i), Type: k})
		}
		iface.Operations = append(iface.Operations, op)
	}
	if err := iface.Validate(); err != nil {
		return service.Interface{}, err
	}
	return iface, nil
}

// SpecFromInterface converts a federation interface to Jini metadata (the
// Server Proxy direction).
func SpecFromInterface(iface service.Interface) jini.InterfaceSpec {
	spec := jini.InterfaceSpec{Name: iface.Name}
	for _, op := range iface.Operations {
		m := jini.MethodSpec{Name: op.Name}
		if op.Output != service.KindVoid {
			m.Return = op.Output.String()
		}
		for _, in := range op.Inputs {
			m.Params = append(m.Params, in.Type.String())
		}
		spec.Methods = append(spec.Methods, m)
	}
	return spec
}

// clientProxy generates the CP Invoker for a Jini proxy descriptor: calls
// convert federation values to RMI-sim values and back.
func clientProxy(proxy jini.ProxyDescriptor, iface service.Interface) service.Invoker {
	return service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		opSpec, ok := iface.Operation(op)
		if !ok {
			return service.Value{}, fmt.Errorf("%s: %w", op, service.ErrNoSuchOperation)
		}
		goArgs := make([]any, len(args))
		for i, a := range args {
			goArgs[i] = a.ToGo()
		}
		result, err := jini.Call(ctx, proxy, op, goArgs)
		if err != nil {
			return service.Value{}, fmt.Errorf("jinipcm: %s.%s: %w", proxy.Iface.Name, op, err)
		}
		if opSpec.Output == service.KindVoid {
			return service.Void(), nil
		}
		v, err := service.FromGo(result)
		if err != nil {
			return service.Value{}, fmt.Errorf("jinipcm: %s.%s result: %w", proxy.Iface.Name, op, err)
		}
		return v, nil
	})
}

// offer creates the SP for one remote service: a Jini remote object
// backed by the gateway, registered in the lookup service under an
// auto-renewed lease.
func (p *PCM) offer(ctx context.Context, gw *vsg.VSG, remote vsr.Remote) (func(), error) {
	p.mu.Lock()
	reg := p.reg
	exporter := p.exporter
	p.mu.Unlock()

	invoker := p.imp.Invoker(gw, remote)
	iface := remote.Desc.Interface
	impl := jini.InvocableFunc(func(method string, goArgs []any) (any, error) {
		opSpec, ok := iface.Operation(method)
		if !ok {
			return nil, fmt.Errorf("%w: %s", jini.ErrNoSuchMethod, method)
		}
		args := make([]service.Value, len(goArgs))
		for i, ga := range goArgs {
			v, err := service.FromGo(ga)
			if err != nil {
				return nil, fmt.Errorf("%w: arg %d: %v", jini.ErrBadArgs, i, err)
			}
			if v.Kind() != opSpec.Inputs[i].Type {
				// Coerce through text form when the Jini client sent a
				// compatible scalar; otherwise reject.
				coerced, cerr := service.ParseText(opSpec.Inputs[i].Type, v.Text())
				if cerr != nil {
					return nil, fmt.Errorf("%w: arg %d has kind %v, want %v", jini.ErrBadArgs, i, v.Kind(), opSpec.Inputs[i].Type)
				}
				v = coerced
			}
			args[i] = v
		}
		result, err := invoker.Invoke(context.Background(), method, args)
		if err != nil {
			return nil, err
		}
		return result.ToGo(), nil
	})

	proxy := exporter.Export(SpecFromInterface(iface), impl)
	attrs := []jini.Entry{
		{Name: EntryName, Value: remote.Desc.ID},
		{Name: entryImported, Value: "true"},
		{Name: entryOrigin, Value: remote.Desc.ID},
	}
	lease, err := reg.Register(ctx, jini.ServiceItem{Proxy: proxy, Attrs: attrs}, proxyLease)
	if err != nil {
		exporter.Unexport(proxy.ObjectID)
		return nil, fmt.Errorf("jinipcm: register SP for %s: %w", remote.Desc.ID, err)
	}
	renewCtx, cancelRenew := context.WithCancel(context.Background())
	wait := lease.AutoRenew(renewCtx, proxyLease/3)

	return func() {
		cancelRenew()
		_ = wait()
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = lease.Cancel(cctx)
		exporter.Unexport(proxy.ObjectID)
	}, nil
}

// OfferedCount reports the number of live Server Proxies (tests).
func (p *PCM) OfferedCount() int {
	if p.imp == nil {
		return 0
	}
	return p.imp.OfferedCount()
}

func hasEntry(attrs []jini.Entry, name, value string) bool {
	for _, e := range attrs {
		if e.Name == name && e.Value == value {
			return true
		}
	}
	return false
}

func entryValue(attrs []jini.Entry, name string) string {
	for _, e := range attrs {
		if e.Name == name {
			return e.Value
		}
	}
	return ""
}

var _ pcm.PCM = (*PCM)(nil)
