// Loopback-vs-wire equivalence: the in-process fast path must be
// observationally identical to the wire — same results for every value
// kind (including XML-unsafe strings that SOAP base64-wraps), same
// *service.RemoteError codes for every target-side failure, and call
// accounting on both gateways. The wire has two legs, the binary fast
// path and SOAP/HTTP (the caller's SetBinaryEnabled(false)); each case
// runs once per path and the outcomes are compared to each other.
package vsg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/service"
)

// echoDesc is a service with one operation per value kind plus failure
// injection.
func echoDesc(id string) service.Description {
	return service.Description{
		ID: id, Name: id, Middleware: "bench",
		Interface: service.Interface{
			Name: "Echo",
			Operations: []service.Operation{
				{Name: "EchoString", Inputs: []service.Parameter{{Name: "v", Type: service.KindString}}, Output: service.KindString},
				{Name: "EchoInt", Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindInt},
				{Name: "EchoFloat", Inputs: []service.Parameter{{Name: "v", Type: service.KindFloat}}, Output: service.KindFloat},
				{Name: "EchoBool", Inputs: []service.Parameter{{Name: "v", Type: service.KindBool}}, Output: service.KindBool},
				{Name: "EchoBytes", Inputs: []service.Parameter{{Name: "v", Type: service.KindBytes}}, Output: service.KindBytes},
				{Name: "Fail", Inputs: []service.Parameter{{Name: "mode", Type: service.KindString}}, Output: service.KindVoid},
			},
		},
	}
}

type echoService struct{}

func (echoService) Invoke(_ context.Context, op string, args []service.Value) (service.Value, error) {
	switch op {
	case "EchoString", "EchoInt", "EchoFloat", "EchoBool", "EchoBytes":
		return args[0], nil
	case "Fail":
		switch args[0].Str() {
		case "unavailable":
			return service.Value{}, service.ErrUnavailable
		case "badarg":
			return service.Value{}, fmt.Errorf("made up: %w", service.ErrBadArgument)
		case "remote":
			return service.Value{}, &service.RemoteError{Code: "Custom", Msg: "custom remote failure"}
		default:
			return service.Value{}, errors.New("plain failure")
		}
	default:
		return service.Value{}, service.ErrNoSuchOperation
	}
}

// wireLegs are the two wires a non-loopback call can take: the binary
// fast path (negotiated by default) and SOAP/HTTP.
var wireLegs = []struct {
	name   string
	binary bool
}{{"wire/binary", true}, {"wire/soap", false}}

// onWire disables loopback on the calling gateway and selects one wire
// leg; the returned func restores the defaults.
func (r *rig) onWire(binary bool) func() {
	r.gw2.SetLoopbackEnabled(false)
	r.gw2.SetBinaryEnabled(binary)
	return func() {
		r.gw2.SetLoopbackEnabled(true)
		r.gw2.SetBinaryEnabled(true)
	}
}

// checkLeg fails a binary leg whose calls did not actually ride the
// binary wire to the target gateway.
func (r *rig) checkLeg(t *testing.T, leg string, binary bool) {
	t.Helper()
	if binary {
		if p := r.gw2.Dialer().ProtocolFor(r.gw1.BaseURL()); p != "binary" {
			t.Errorf("%s: link to the target gateway is %q, want binary", leg, p)
		}
	}
}

// bothPaths runs fn over loopback and over each wire leg (loopback
// disabled on the calling gateway) and hands every outcome to check; the
// wire outcomes must match the loopback one.
func bothPaths(t *testing.T, r *rig, fn func(ctx context.Context) (service.Value, error),
	check func(t *testing.T, path string, v service.Value, err error)) {
	t.Helper()
	ctx := context.Background()
	r.gw2.SetLoopbackEnabled(true)
	vLoop, errLoop := fn(ctx)
	check(t, "loopback", vLoop, errLoop)
	for _, leg := range wireLegs {
		restore := r.onWire(leg.binary)
		vWire, errWire := fn(ctx)
		restore()
		check(t, leg.name, vWire, errWire)
		r.checkLeg(t, leg.name, leg.binary)

		if !vLoop.Equal(vWire) {
			t.Errorf("paths diverge: loopback %v, %s %v", vLoop, leg.name, vWire)
		}
		if (errLoop == nil) != (errWire == nil) {
			t.Errorf("paths diverge: loopback err %v, %s err %v", errLoop, leg.name, errWire)
		}
		if errLoop != nil && errWire != nil {
			var reLoop, reWire *service.RemoteError
			if errors.As(errLoop, &reLoop) != errors.As(errWire, &reWire) {
				t.Errorf("RemoteError mismatch: loopback %v, %s %v", errLoop, leg.name, errWire)
			} else if reLoop != nil && (reLoop.Code != reWire.Code || reLoop.Msg != reWire.Msg) {
				t.Errorf("remote errors diverge: loopback %+v, %s %+v", reLoop, leg.name, reWire)
			}
		}
	}
}

func TestLoopbackWireValueEquivalence(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op  string
		arg service.Value
	}{
		{"EchoString", service.StringValue("plain")},
		{"EchoString", service.StringValue("xml <&> 'quoted' \"text\"")},
		{"EchoString", service.StringValue("control \x15 char")}, // XML-unsafe: wire base64-wraps
		{"EchoString", service.StringValue("a\xffb")},            // invalid UTF-8
		{"EchoString", service.StringValue("null\x00byte")},
		{"EchoString", service.StringValue("tab\tand\nnewline\rok")},
		{"EchoInt", service.IntValue(-42)},
		{"EchoFloat", service.FloatValue(2.5)},
		{"EchoBool", service.BoolValue(true)},
		{"EchoBytes", service.BytesValue([]byte{0x00, 0xff, 0x10})},
	}
	for _, tc := range cases {
		bothPaths(t, r,
			func(ctx context.Context) (service.Value, error) {
				return r.gw2.Call(ctx, "bench:echo", tc.op, []service.Value{tc.arg})
			},
			func(t *testing.T, path string, v service.Value, err error) {
				if err != nil {
					t.Errorf("%s %s(%v): %v", path, tc.op, tc.arg, err)
					return
				}
				if !v.Equal(tc.arg) {
					t.Errorf("%s %s: got %v, want %v", path, tc.op, v, tc.arg)
				}
			})
	}
}

func TestLoopbackWireFaultEquivalence(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mode     string
		wantCode string
		sentinel error
	}{
		{"unavailable", "Unavailable", service.ErrUnavailable},
		{"badarg", "BadArgument", service.ErrBadArgument},
		{"remote", "Custom", nil},
		{"plain", "Server", nil},
	}
	for _, tc := range cases {
		bothPaths(t, r,
			func(ctx context.Context) (service.Value, error) {
				return r.gw2.Call(ctx, "bench:echo", "Fail", []service.Value{service.StringValue(tc.mode)})
			},
			func(t *testing.T, path string, _ service.Value, err error) {
				if err == nil {
					t.Errorf("%s Fail(%s): no error", path, tc.mode)
					return
				}
				var re *service.RemoteError
				if !errors.As(err, &re) {
					t.Errorf("%s Fail(%s): %T is not a RemoteError: %v", path, tc.mode, err, err)
					return
				}
				if re.Code != tc.wantCode {
					t.Errorf("%s Fail(%s): code %q, want %q", path, tc.mode, re.Code, tc.wantCode)
				}
				if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
					t.Errorf("%s Fail(%s): %v does not match sentinel %v", path, tc.mode, err, tc.sentinel)
				}
			})
	}
}

// TestLoopbackWireContextEquivalence: a context that expires mid-call
// must keep its sentinel identity (and ErrUnavailable) on every path —
// cancellation is a transport condition, not a remote fault, even when
// the target handler saw the deadline itself and returned its error.
func TestLoopbackWireContextEquivalence(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	desc := echoDesc("bench:slow")
	slow := service.InvokerFunc(func(ctx context.Context, _ string, _ []service.Value) (service.Value, error) {
		<-ctx.Done()
		return service.Value{}, ctx.Err()
	})
	if err := r.gw1.Export(ctx, desc, slow); err != nil {
		t.Fatal(err)
	}
	call := func(path string) {
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := r.gw2.Call(cctx, "bench:slow", "EchoInt", []service.Value{service.IntValue(1)})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded to match", path, err)
		}
		if !errors.Is(err, service.ErrUnavailable) {
			t.Errorf("%s: err = %v, want ErrUnavailable to match", path, err)
		}
	}
	call("loopback")
	for _, leg := range wireLegs {
		restore := r.onWire(leg.binary)
		call(leg.name)
		restore()
		r.checkLeg(t, leg.name, leg.binary)
	}
}

// TestLoopbackWireOversizedEquivalence: SOAP bounds envelopes at
// soap.MaxEnvelopeBytes. Loopback and the binary wire keep the
// accept/reject boundary identical by routing borderline-large requests
// over SOAP/HTTP (where the real codec decides) and size-checking large
// results against a genuinely encoded response envelope — so payload
// size never changes a call's outcome between paths.
func TestLoopbackWireOversizedEquivalence(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		op     string
		arg    service.Value
		wantOK bool
	}{
		// Fits comfortably: stays on the fast path.
		{"small", "EchoBytes", service.BytesValue(make([]byte, 1024)), true},
		// Above the loopback ceiling yet within the wire bound: both
		// paths must succeed (the case a naive size estimate rejects).
		{"large-but-legal string", "EchoString", service.StringValue(strings.Repeat("x", 800_000)), true},
		{"large-but-legal bytes", "EchoBytes", service.BytesValue(make([]byte, 600_000)), true},
		// Base64-expands past the wire bound: both paths must fail.
		{"oversized", "EchoBytes", service.BytesValue(make([]byte, 2<<20)), false},
	}
	for _, tc := range cases {
		check := func(path string) {
			v, err := r.gw2.Call(ctx, "bench:echo", tc.op, []service.Value{tc.arg})
			if tc.wantOK {
				if err != nil {
					t.Errorf("%s %s: %v, want success", path, tc.name, err)
				} else if !v.Equal(tc.arg) {
					t.Errorf("%s %s: result does not round-trip", path, tc.name)
				}
			} else if err == nil {
				t.Errorf("%s %s: succeeded, want envelope-bound failure", path, tc.name)
			}
		}
		check("loopback")
		for _, leg := range wireLegs {
			restore := r.onWire(leg.binary)
			check(leg.name)
			restore()
			r.checkLeg(t, leg.name, leg.binary)
		}
	}

	// The big calls must have routed over the wire even with loopback
	// enabled: only the small one may count as a loopback hit.
	if loop := r.gw2.CallStats().Loopback; loop != 1 {
		t.Errorf("loopback hits = %d, want 1 (large payloads route to the wire)", loop)
	}
}

// TestLoopbackStaleExport covers the target gateway dropping an export
// the repository still advertises: both paths must report NoSuchService.
func TestLoopbackStaleExport(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	// Resolve once so gw2 has the endpoint, then make the export vanish
	// from gw1 while its registration would still linger in a cache.
	if _, err := r.gw2.Resolve(ctx, "bench:echo"); err != nil {
		t.Fatal(err)
	}
	remote, err := r.gw2.Resolve(ctx, "bench:echo")
	if err != nil {
		t.Fatal(err)
	}
	r.gw1.mu.Lock()
	delete(r.gw1.exports, "bench:echo")
	r.gw1.mu.Unlock()
	bothPaths(t, r,
		func(ctx context.Context) (service.Value, error) {
			return r.gw2.CallRemote(ctx, remote, "EchoInt", []service.Value{service.IntValue(1)})
		},
		func(t *testing.T, path string, _ service.Value, err error) {
			if !errors.Is(err, service.ErrNoSuchService) {
				t.Errorf("%s: err = %v, want ErrNoSuchService", path, err)
			}
		})
}

func TestLoopbackStatsAndHealth(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	arg := []service.Value{service.IntValue(7)}
	for i := 0; i < 3; i++ {
		if _, err := r.gw2.Call(ctx, "bench:echo", "EchoInt", arg); err != nil {
			t.Fatal(err)
		}
	}
	if in := r.gw1.CallStats().Inbound; in != 3 {
		t.Errorf("gw1 inbound = %d, want 3 (loopback must count on the target)", in)
	}
	if s := r.gw2.CallStats(); s.Outbound != 3 || s.Loopback != 3 {
		t.Errorf("gw2 out=%d loop=%d, want 3/3", s.Outbound, s.Loopback)
	}
	if h := r.gw2.Health(); h.LoopbackCalls != 3 {
		t.Errorf("Health.LoopbackCalls = %d, want 3", h.LoopbackCalls)
	}

	// The escape hatch forces the wire: outbound keeps counting, the
	// loopback counter freezes.
	r.gw2.SetLoopbackEnabled(false)
	if _, err := r.gw2.Call(ctx, "bench:echo", "EchoInt", arg); err != nil {
		t.Fatal(err)
	}
	if s := r.gw2.CallStats(); s.Outbound != 4 || s.Loopback != 3 {
		t.Errorf("after SetLoopbackEnabled(false): out=%d loop=%d, want 4/3", s.Outbound, s.Loopback)
	}
	if in := r.gw1.CallStats().Inbound; in != 4 {
		t.Errorf("gw1 inbound = %d, want 4", in)
	}
}

// TestLoopbackClosedGatewayFallsToWire pins the teardown contract: a
// closed gateway leaves the process registry, so callers observe the dead
// listener (ErrUnavailable) exactly as they would for a remote host.
func TestLoopbackClosedGatewayFallsToWire(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	if err := r.gw1.Export(ctx, echoDesc("bench:echo"), echoService{}); err != nil {
		t.Fatal(err)
	}
	remote, err := r.gw2.Resolve(ctx, "bench:echo")
	if err != nil {
		t.Fatal(err)
	}
	r.gw1.Close()
	if _, err := r.gw2.CallRemote(ctx, remote, "EchoInt", []service.Value{service.IntValue(1)}); !errors.Is(err, service.ErrUnavailable) {
		t.Errorf("call to closed gateway: %v, want ErrUnavailable", err)
	}
}

// TestLoopbackTargetParsing pins the endpoint-matching rule.
func TestLoopbackTargetParsing(t *testing.T) {
	r := newRig(t)
	if tgt := r.gw2.loopbackTarget(r.gw1.BaseURL()+"/services/x", nil); tgt != r.gw1 {
		t.Errorf("loopbackTarget(gw1 endpoint) = %v, want gw1", tgt)
	}
	if tgt := r.gw2.loopbackTarget("http://192.0.2.9:1/services/x", nil); tgt != nil {
		t.Errorf("foreign endpoint matched in-process gateway %v", tgt)
	}
	if tgt := r.gw2.loopbackTarget("not a url", nil); tgt != nil {
		t.Errorf("garbage endpoint matched %v", tgt)
	}
	if !strings.HasPrefix(r.gw1.EndpointFor("x"), r.gw1.BaseURL()+servicesPath) {
		t.Fatalf("endpoint shape changed; update loopbackTarget")
	}
}
