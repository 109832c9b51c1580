// Package havipcm is the Protocol Conversion Manager for the HAVi
// simulation — the third middleware of the paper's prototype (§4.1),
// controlling digital AV appliances on the IEEE 1394 bus.
//
// Client Proxy direction: the PCM joins the bus as its own HAVi device,
// queries the distributed registry for FCMs, converts each FCM type's
// well-known opcode API into a federation interface, and exports Invokers
// that send HAVi control messages.
//
// Server Proxy direction: remote federation services are registered as
// virtual software elements on the PCM's device, so unmodified HAVi
// clients find them in the registry and control them with messages. The
// virtual elements accept the generic OpInvokeByName opcode whose first
// argument names the operation — HAVi's opcode space has no slot for
// foreign interfaces, so the PCM defines one, and advertises each
// operation's signature in the element attributes.
package havipcm

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/havi"
	"homeconnect/internal/ieee1394"
	"homeconnect/internal/service"
)

// OpInvokeByName is the generic opcode virtual (Server Proxy) elements
// accept: args[0] is the operation name, the rest are its arguments.
const OpInvokeByName uint16 = 0x7F00

// Attribute names on virtual elements.
const (
	// AttrImported tags Server Proxy elements.
	AttrImported = service.CtxImported
	// AttrOrigin carries the origin federation service ID.
	AttrOrigin = service.CtxOrigin
	// AttrOps lists the offered operation signatures, comma separated.
	AttrOps = "homeconnect.ops"
)

// PCM bridges one HAVi bus to the federation.
type PCM struct {
	bus    *ieee1394.Bus
	guid   ieee1394.GUID
	runner pcm.Runner

	mu  sync.Mutex
	dev *havi.Device

	exp *pcm.Exporter
	imp *pcm.Importer
}

// New builds a PCM that joins bus with the given GUID.
func New(bus *ieee1394.Bus, guid ieee1394.GUID) *PCM {
	return &PCM{bus: bus, guid: guid}
}

// Middleware implements pcm.PCM.
func (p *PCM) Middleware() string { return "havi" }

// Device returns the PCM's bus presence (tests).
func (p *PCM) Device() *havi.Device {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dev
}

// Start implements pcm.PCM.
func (p *PCM) Start(ctx context.Context, gw *vsg.VSG) error {
	runCtx := p.runner.Start(ctx)
	dev := havi.NewDevice(p.bus, p.guid, "homeconnect-pcm")
	p.mu.Lock()
	p.dev = dev
	p.mu.Unlock()

	p.exp = &pcm.Exporter{List: p.listLocal}
	p.imp = &pcm.Importer{Middleware: "havi", Offer: func(ctx context.Context, r vsr.Remote) (func(), error) {
		return p.offer(gw, r)
	}}
	p.runner.Go(func() { p.exp.Run(runCtx, gw) })
	p.runner.Go(func() { p.imp.Run(runCtx, gw) })

	// Bridge HAVi transport events onto the federation hub (§4.2's
	// event-based multimedia system consumes these).
	stopSub := dev.Subscribe(havi.EventTransport, func(src havi.SEID, _ uint16, args []havi.Value) {
		state, err := havi.ArgString(args, 0)
		if err != nil {
			return
		}
		gw.Hub().Publish(service.Event{
			Source: "havi:" + src.String(),
			Topic:  "havi.transport",
			Payload: map[string]service.Value{
				"state": service.StringValue(state),
				"seid":  service.StringValue(src.String()),
			},
		})
	})
	p.runner.Go(func() {
		<-runCtx.Done()
		stopSub()
	})
	return nil
}

// Stop implements pcm.PCM.
func (p *PCM) Stop() error {
	p.runner.Stop()
	p.mu.Lock()
	dev := p.dev
	p.mu.Unlock()
	if dev != nil {
		dev.Close()
	}
	return nil
}

// fcmInterface maps each HAVi FCM type to its federation interface —
// static tables, because HAVi FCM APIs are standardized.
func fcmInterface(fcmType string) (service.Interface, map[string]uint16, bool) {
	switch fcmType {
	case "VCR":
		return service.Interface{
				Name: "HaviVCR",
				Doc:  "HAVi VCR functional component",
				Operations: []service.Operation{
					{Name: "Play", Output: service.KindVoid},
					{Name: "Stop", Output: service.KindVoid},
					{Name: "Record", Output: service.KindVoid},
					{Name: "Rewind", Output: service.KindVoid},
					{Name: "State", Output: service.KindString},
					{Name: "Position", Output: service.KindInt},
					{Name: "SetChannel", Inputs: []service.Parameter{{Name: "channel", Type: service.KindInt}}, Output: service.KindVoid},
					{Name: "Channel", Output: service.KindInt},
				},
			}, map[string]uint16{
				"Play": havi.OpPlay, "Stop": havi.OpStop, "Record": havi.OpRecord,
				"Rewind": havi.OpRewind, "State": havi.OpState, "Position": havi.OpPosition,
				"SetChannel": havi.OpSetChannel, "Channel": havi.OpChannel,
			}, true
	case "Camera":
		return service.Interface{
				Name: "HaviCamera",
				Doc:  "HAVi DV camera functional component",
				Operations: []service.Operation{
					{Name: "StartCapture", Output: service.KindVoid},
					{Name: "StopCapture", Output: service.KindVoid},
					{Name: "Zoom", Inputs: []service.Parameter{{Name: "level", Type: service.KindInt}}, Output: service.KindVoid},
					{Name: "ZoomLevel", Output: service.KindInt},
					{Name: "State", Output: service.KindString},
				},
			}, map[string]uint16{
				"StartCapture": havi.OpPlay, "StopCapture": havi.OpStop,
				"Zoom": havi.OpZoom, "ZoomLevel": havi.OpZoomLevel, "State": havi.OpState,
			}, true
	case "Tuner":
		return service.Interface{
				Name: "HaviTuner",
				Doc:  "HAVi broadcast tuner functional component",
				Operations: []service.Operation{
					{Name: "SetChannel", Inputs: []service.Parameter{{Name: "channel", Type: service.KindInt}}, Output: service.KindVoid},
					{Name: "Channel", Output: service.KindInt},
				},
			}, map[string]uint16{
				"SetChannel": havi.OpSetChannel, "Channel": havi.OpChannel,
			}, true
	case "Display":
		return service.Interface{
				Name: "HaviDisplay",
				Doc:  "HAVi display functional component",
				Operations: []service.Operation{
					{Name: "ShowMessage", Inputs: []service.Parameter{{Name: "text", Type: service.KindString}}, Output: service.KindVoid},
					{Name: "SetInput", Inputs: []service.Parameter{{Name: "input", Type: service.KindString}}, Output: service.KindVoid},
					{Name: "Input", Output: service.KindString},
					{Name: "Frames", Output: service.KindInt},
				},
			}, map[string]uint16{
				"ShowMessage": havi.OpShowMessage, "SetInput": havi.OpSetInput,
				"Input": havi.OpInput, "Frames": havi.OpFrames,
			}, true
	case "Amplifier":
		return service.Interface{
				Name: "HaviAmplifier",
				Doc:  "HAVi amplifier functional component",
				Operations: []service.Operation{
					{Name: "SetVolume", Inputs: []service.Parameter{{Name: "volume", Type: service.KindInt}}, Output: service.KindVoid},
					{Name: "Volume", Output: service.KindInt},
				},
			}, map[string]uint16{
				"SetVolume": havi.OpSetVolume, "Volume": havi.OpVolume,
			}, true
	default:
		return service.Interface{}, nil, false
	}
}

// listLocal queries the HAVi registry for FCMs (the CP direction).
func (p *PCM) listLocal(ctx context.Context) ([]pcm.LocalService, error) {
	p.mu.Lock()
	dev := p.dev
	p.mu.Unlock()
	infos, err := dev.Query(ctx, map[string]string{havi.AttrSEType: "FCM"})
	if err != nil {
		return nil, err
	}
	var out []pcm.LocalService
	for _, info := range infos {
		if info.Attrs[AttrImported] == "true" {
			continue
		}
		iface, opcodes, ok := fcmInterface(info.Attrs[havi.AttrFCMType])
		if !ok {
			continue // unknown FCM type stays HAVi-only
		}
		name := localName(info)
		desc := service.Description{
			ID:         "havi:" + name,
			Name:       name,
			Middleware: "havi",
			Interface:  iface,
			Context: map[string]string{
				"havi.seid": info.SEID.String(),
				"havi.huid": info.Attrs[havi.AttrHUID],
				"havi.type": info.Attrs[havi.AttrFCMType],
			},
		}
		out = append(out, pcm.LocalService{Desc: desc, Invoker: p.fcmInvoker(info.SEID, iface, opcodes)})
	}
	return out, nil
}

// localName derives a stable short name for an FCM.
func localName(info havi.ElementInfo) string {
	huid := info.Attrs[havi.AttrHUID]
	if name, ok := strings.CutPrefix(huid, "huid-"); ok && name != "" {
		return name
	}
	return strings.ToLower(info.Attrs[havi.AttrFCMType]) + "-" + info.SEID.String()
}

// fcmInvoker generates the CP Invoker: operations become HAVi control
// messages.
func (p *PCM) fcmInvoker(seid havi.SEID, iface service.Interface, opcodes map[string]uint16) service.Invoker {
	return service.InvokerFunc(func(ctx context.Context, op string, args []service.Value) (service.Value, error) {
		opSpec, ok := iface.Operation(op)
		if !ok {
			return service.Value{}, fmt.Errorf("%s: %w", op, service.ErrNoSuchOperation)
		}
		opcode, ok := opcodes[op]
		if !ok {
			return service.Value{}, fmt.Errorf("%s: %w", op, service.ErrNoSuchOperation)
		}
		p.mu.Lock()
		dev := p.dev
		p.mu.Unlock()
		haviArgs := make([]havi.Value, len(args))
		for i, a := range args {
			haviArgs[i] = a.ToGo()
		}
		vals, err := dev.Send(ctx, havi.SwDCM, seid, opcode, haviArgs)
		if err != nil {
			return service.Value{}, fmt.Errorf("havipcm: %s: %w", op, err)
		}
		if opSpec.Output == service.KindVoid {
			return service.Void(), nil
		}
		if len(vals) == 0 {
			return service.Value{}, fmt.Errorf("havipcm: %s returned nothing, want %v", op, opSpec.Output)
		}
		v, err := service.FromGo(vals[0])
		if err != nil {
			return service.Value{}, fmt.Errorf("havipcm: %s result: %w", op, err)
		}
		return v, nil
	})
}

// offer registers a virtual element for one remote service (SP
// direction).
func (p *PCM) offer(gw *vsg.VSG, remote vsr.Remote) (func(), error) {
	p.mu.Lock()
	dev := p.dev
	p.mu.Unlock()

	invoker := p.imp.Invoker(gw, remote)
	iface := remote.Desc.Interface
	sigs := make([]string, 0, len(iface.Operations))
	for _, op := range iface.Operations {
		sigs = append(sigs, op.Signature())
	}
	el := havi.ElementFunc{
		Attrs: map[string]string{
			havi.AttrSEType:  "FCM",
			havi.AttrFCMType: "Virtual",
			havi.AttrDevName: "homeconnect-pcm",
			havi.AttrHUID:    "huid-virtual-" + remote.Desc.ID,
			AttrImported:     "true",
			AttrOrigin:       remote.Desc.ID,
			AttrOps:          strings.Join(sigs, ","),
		},
		Handle: func(src havi.SEID, opcode uint16, args []havi.Value) ([]havi.Value, error) {
			if opcode != OpInvokeByName {
				return nil, fmt.Errorf("%w: virtual element accepts only OpInvokeByName", havi.ErrUnknownOpcode)
			}
			opName, err := havi.ArgString(args, 0)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", havi.ErrBadMessage, err)
			}
			opSpec, ok := iface.Operation(opName)
			if !ok {
				return nil, fmt.Errorf("%w: %s", havi.ErrUnknownOpcode, opName)
			}
			rest := args[1:]
			if len(rest) != len(opSpec.Inputs) {
				return nil, fmt.Errorf("%w: %s wants %d args, got %d", havi.ErrBadMessage, opName, len(opSpec.Inputs), len(rest))
			}
			svcArgs := make([]service.Value, len(rest))
			for i, a := range rest {
				v, err := service.FromGo(a)
				if err != nil {
					return nil, fmt.Errorf("%w: arg %d: %v", havi.ErrBadMessage, i, err)
				}
				svcArgs[i] = v
			}
			result, err := invoker.Invoke(context.Background(), opName, svcArgs)
			if err != nil {
				return nil, err
			}
			if result.IsVoid() {
				return nil, nil
			}
			return []havi.Value{result.ToGo()}, nil
		},
	}
	seid := dev.RegisterFCM(el, nil)
	return func() { dev.Unregister(seid.SwID) }, nil
}

// InvokeVirtual is the helper HAVi clients use to call a virtual element
// found in the registry: it wraps OpInvokeByName.
func InvokeVirtual(ctx context.Context, dev *havi.Device, target havi.SEID, op string, args ...havi.Value) ([]havi.Value, error) {
	full := append([]havi.Value{op}, args...)
	return dev.Send(ctx, havi.SwDCM, target, OpInvokeByName, full)
}

// OfferedCount reports the number of live Server Proxies (tests).
func (p *PCM) OfferedCount() int {
	if p.imp == nil {
		return 0
	}
	return p.imp.OfferedCount()
}

var _ pcm.PCM = (*PCM)(nil)
