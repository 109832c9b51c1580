// Package upnppcm is the Protocol Conversion Manager for UPnP — the
// extension the paper proposes in its related work (§5): "We can connect
// the UPnP service to other middleware by developing a PCM for UPnP."
// This package is exactly that PCM, validating the claim that new
// middleware joins the framework by writing one converter (experiment
// E10).
//
// Client Proxy direction: the PCM SSDP-searches the configured device
// addresses, fetches descriptions and SCPDs, converts each action table
// to a federation interface, and exports Invokers that drive the device
// with SOAP control — UPnP control *is* SOAP, so the conversion is thin.
//
// Server Proxy direction: remote federation services are hosted as
// virtual UPnP devices whose single service carries the remote interface
// as SCPD actions; unmodified UPnP control points discover them via SSDP
// and invoke them natively.
package upnppcm

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/upnp"
)

// virtualUDNPrefix marks devices this PCM hosts, so the CP scan skips
// them (the imported-service loop guard in UPnP's namespace).
const virtualUDNPrefix = "uuid:homeconnect-virtual-"

// Config wires the PCM to its UPnP neighbourhood.
type Config struct {
	// SSDPAddrs are the unicast search targets for real devices.
	SSDPAddrs []string
}

// PCM bridges UPnP devices to the federation.
type PCM struct {
	cfg    Config
	cp     *upnp.ControlPoint
	runner pcm.Runner

	mu      sync.Mutex
	virtual map[string]*upnp.Device // origin ID → hosted virtual device

	exp *pcm.Exporter
	imp *pcm.Importer
}

// New builds the PCM from configuration.
func New(cfg Config) *PCM {
	return &PCM{
		cfg:     cfg,
		cp:      &upnp.ControlPoint{},
		virtual: make(map[string]*upnp.Device),
	}
}

// Middleware implements pcm.PCM.
func (p *PCM) Middleware() string { return "upnp" }

// Start implements pcm.PCM.
func (p *PCM) Start(ctx context.Context, gw *vsg.VSG) error {
	runCtx := p.runner.Start(ctx)
	p.exp = &pcm.Exporter{List: p.listLocal}
	p.imp = &pcm.Importer{Middleware: "upnp", Offer: func(ctx context.Context, r vsr.Remote) (func(), error) {
		return p.offer(gw, r)
	}}
	p.runner.Go(func() { p.exp.Run(runCtx, gw) })
	p.runner.Go(func() { p.imp.Run(runCtx, gw) })
	return nil
}

// Stop implements pcm.PCM.
func (p *PCM) Stop() error {
	p.runner.Stop()
	p.mu.Lock()
	devs := make([]*upnp.Device, 0, len(p.virtual))
	for _, d := range p.virtual {
		devs = append(devs, d)
	}
	p.virtual = make(map[string]*upnp.Device)
	p.mu.Unlock()
	for _, d := range devs {
		d.Close()
	}
	return nil
}

// VirtualSSDPAddrs returns the SSDP addresses of hosted virtual devices,
// for local control points to search.
func (p *PCM) VirtualSSDPAddrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.virtual))
	for _, d := range p.virtual {
		out = append(out, d.SSDPAddr())
	}
	return out
}

// listLocal discovers real UPnP devices and converts them (CP direction).
func (p *PCM) listLocal(ctx context.Context) ([]pcm.LocalService, error) {
	results, err := upnp.Search(ctx, "ssdp:all", p.cfg.SSDPAddrs)
	if err != nil {
		return nil, err
	}
	var out []pcm.LocalService
	for _, res := range results {
		desc, services, err := p.cp.Describe(ctx, res.Location)
		if err != nil {
			continue // device went away between search and describe
		}
		if strings.HasPrefix(desc.UDN, virtualUDNPrefix) {
			continue // one of our own server proxies
		}
		for _, rs := range services {
			ls, err := p.convert(desc, rs)
			if err != nil {
				continue
			}
			out = append(out, ls)
		}
	}
	return out, nil
}

// convert maps one remote UPnP service to a federation export.
func (p *PCM) convert(desc upnp.ParsedDescription, rs upnp.RemoteService) (pcm.LocalService, error) {
	iface, err := InterfaceFromActions(serviceTypeName(rs.Type), rs.Actions)
	if err != nil {
		return pcm.LocalService{}, err
	}
	name := sanitize(desc.FriendlyName) + "-" + shortServiceID(rs.ID)
	fedDesc := service.Description{
		ID:         "upnp:" + name,
		Name:       desc.FriendlyName,
		Middleware: "upnp",
		Interface:  iface,
		Context: map[string]string{
			"upnp.udn":         desc.UDN,
			"upnp.deviceType":  desc.DeviceType,
			"upnp.serviceType": rs.Type,
		},
	}
	cp := p.cp
	inv := service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		return cp.Invoke(ctx, rs, op, args)
	})
	return pcm.LocalService{Desc: fedDesc, Invoker: inv}, nil
}

// InterfaceFromActions converts a UPnP action table to a federation
// interface.
func InterfaceFromActions(name string, actions []upnp.Action) (service.Interface, error) {
	iface := service.Interface{Name: name}
	for _, a := range actions {
		op := service.Operation{Name: a.Name, Output: a.Out}
		if op.Output == service.KindInvalid {
			op.Output = service.KindVoid
		}
		for _, in := range a.In {
			op.Inputs = append(op.Inputs, service.Parameter{Name: in.Name, Type: in.Type})
		}
		iface.Operations = append(iface.Operations, op)
	}
	if err := iface.Validate(); err != nil {
		return service.Interface{}, err
	}
	return iface, nil
}

// ActionsFromInterface converts a federation interface to a UPnP action
// table (SP direction).
func ActionsFromInterface(iface service.Interface) []upnp.Action {
	out := make([]upnp.Action, 0, len(iface.Operations))
	for _, op := range iface.Operations {
		a := upnp.Action{Name: op.Name, Out: op.Output}
		for _, in := range op.Inputs {
			a.In = append(a.In, upnp.Arg{Name: in.Name, Type: in.Type})
		}
		out = append(out, a)
	}
	return out
}

// offer hosts a virtual UPnP device for one remote service (SP
// direction).
func (p *PCM) offer(gw *vsg.VSG, remote vsr.Remote) (func(), error) {
	invoker := p.imp.Invoker(gw, remote)
	shortID := sanitize(remote.Desc.ID)
	svc := upnp.Service{
		Type:    "urn:homeconnect-org:service:" + remote.Desc.Interface.Name + ":1",
		ID:      "urn:homeconnect-org:serviceId:" + shortID,
		Actions: ActionsFromInterface(remote.Desc.Interface),
	}
	desc := upnp.Description{
		DeviceType:   "urn:homeconnect-org:device:Virtual:1",
		FriendlyName: remote.Desc.ID,
		UDN:          virtualUDNPrefix + shortID,
		Services:     []upnp.Service{svc},
	}
	dev := upnp.NewDevice(desc, map[string]upnp.ActionHandler{
		svc.ShortID(): func(ctx context.Context, action string, args []service.Value) (service.Value, error) {
			return invoker.Invoke(ctx, action, args)
		},
	})
	if err := dev.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("upnppcm: host virtual device for %s: %w", remote.Desc.ID, err)
	}
	p.mu.Lock()
	p.virtual[remote.Desc.ID] = dev
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.virtual, remote.Desc.ID)
		p.mu.Unlock()
		dev.Close()
	}, nil
}

// OfferedCount reports the number of live Server Proxies (tests).
func (p *PCM) OfferedCount() int {
	if p.imp == nil {
		return 0
	}
	return p.imp.OfferedCount()
}

// serviceTypeName extracts the bare type name from a service type URN.
func serviceTypeName(urn string) string {
	parts := strings.Split(urn, ":")
	if len(parts) >= 2 {
		return parts[len(parts)-2]
	}
	return urn
}

// shortServiceID extracts the trailing component of a serviceId URN.
func shortServiceID(id string) string {
	if i := strings.LastIndexByte(id, ':'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// sanitize makes a string safe for IDs and UDNs.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}

var _ pcm.PCM = (*PCM)(nil)
