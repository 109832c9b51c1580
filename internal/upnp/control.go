package upnp

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
)

// ControlPoint drives remote UPnP devices: it fetches descriptions and
// SCPDs over HTTP and invokes actions over SOAP.
type ControlPoint struct {
	// HTTP is the underlying client; the shared keep-alive transport
	// (internal/transport) if nil.
	HTTP *http.Client
}

func (c *ControlPoint) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return transport.OpenDialer().HTTPClient()
}

// RemoteService is a fully resolved service on a remote device.
type RemoteService struct {
	Device     ParsedDescription
	Type       string
	ID         string
	ControlURL string // absolute
	Actions    []Action
}

// Action returns the named action.
func (r RemoteService) Action(name string) (Action, bool) {
	for _, a := range r.Actions {
		if a.Name == name {
			return a, true
		}
	}
	return Action{}, false
}

// Describe fetches and resolves a device description: every service's
// SCPD is fetched and parsed so the caller sees complete action tables.
func (c *ControlPoint) Describe(ctx context.Context, location string) (ParsedDescription, []RemoteService, error) {
	raw, err := c.get(ctx, location)
	if err != nil {
		return ParsedDescription{}, nil, err
	}
	desc, err := ParseDescription(raw)
	if err != nil {
		return ParsedDescription{}, nil, err
	}
	base, err := url.Parse(location)
	if err != nil {
		return ParsedDescription{}, nil, fmt.Errorf("upnp: bad location %q: %w", location, err)
	}
	var services []RemoteService
	for _, s := range desc.Services {
		scpdURL, err := resolveRef(base, s.SCPDURL)
		if err != nil {
			return ParsedDescription{}, nil, err
		}
		scpdRaw, err := c.get(ctx, scpdURL)
		if err != nil {
			return ParsedDescription{}, nil, err
		}
		actions, err := ParseSCPD(scpdRaw)
		if err != nil {
			return ParsedDescription{}, nil, err
		}
		controlURL, err := resolveRef(base, s.ControlURL)
		if err != nil {
			return ParsedDescription{}, nil, err
		}
		services = append(services, RemoteService{
			Device:     desc,
			Type:       s.Type,
			ID:         s.ID,
			ControlURL: controlURL,
			Actions:    actions,
		})
	}
	return desc, services, nil
}

// Invoke calls an action on a remote service with positional arguments
// matching the SCPD declaration.
func (c *ControlPoint) Invoke(ctx context.Context, svc RemoteService, action string, args []service.Value) (service.Value, error) {
	act, ok := svc.Action(action)
	if !ok {
		return service.Value{}, fmt.Errorf("%s: %w", action, service.ErrNoSuchOperation)
	}
	if len(args) != len(act.In) {
		return service.Value{}, fmt.Errorf("%s: got %d args, want %d: %w",
			action, len(args), len(act.In), service.ErrBadArgument)
	}
	call := soap.Call{Namespace: svc.Type, Operation: action}
	for i, in := range act.In {
		call.Args = append(call.Args, soap.Arg{Name: in.Name, Value: args[i]})
	}
	client := &soap.Client{HTTP: c.httpClient(), URL: svc.ControlURL}
	return client.Call(ctx, svc.Type+"#"+action, call)
}

// get fetches a URL body with a size limit.
func (c *ControlPoint) get(ctx context.Context, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("upnp: build request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("upnp: %w: %w", service.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("upnp: GET %s: %s", u, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

func resolveRef(base *url.URL, ref string) (string, error) {
	r, err := url.Parse(ref)
	if err != nil {
		return "", fmt.Errorf("upnp: bad URL %q: %w", ref, err)
	}
	return base.ResolveReference(r).String(), nil
}
