package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// MaxEnvelopeBytes bounds request/response bodies to keep a misbehaving
// peer from exhausting memory. The paper's appliance-class targets make a
// small bound realistic. Exported so the gateway's loopback dispatch can
// honor the same limit the wire enforces.
const MaxEnvelopeBytes = 1 << 20

// PayloadCeiling is the largest total payload (service.Value.PayloadLen
// over a call's arguments or its result) that certainly encodes within
// MaxEnvelopeBytes: escaping can expand a payload up to 6× ("&#34;" for
// a quote, U+FFFD for an invalid byte), and 4 KiB covers the envelope
// shell and element names. Paths that skip the XML codec — the binary
// wire, the gateway loopback — hand anything larger to the real codec so
// the accept/reject boundary is the same on every path.
const PayloadCeiling = (MaxEnvelopeBytes - 4096) / 6

// ErrEnvelopeTooLarge reports a result whose response envelope would
// exceed MaxEnvelopeBytes, on paths that check it without decoding a
// truncated envelope.
var ErrEnvelopeTooLarge = fmt.Errorf("soap: response envelope exceeds %d bytes", MaxEnvelopeBytes)

// CheckResultSize applies the envelope bound to a result without going
// through the wire: a result above PayloadCeiling is encoded for real and
// refused with ErrEnvelopeTooLarge if the envelope does not fit.
func CheckResultSize(namespace, op string, v service.Value) error {
	if v.PayloadLen() <= PayloadCeiling {
		return nil
	}
	data, err := EncodeResponse(namespace, op, v)
	if err != nil {
		return err
	}
	if len(data) > MaxEnvelopeBytes {
		return ErrEnvelopeTooLarge
	}
	return nil
}

// Client issues SOAP calls over HTTP, the binding used between Virtual
// Service Gateways. With a Dialer set, calls first try the binary fast
// path to the endpoint's authority and fall back to SOAP/HTTP when the
// authority has not negotiated it.
type Client struct {
	// HTTP is the underlying client; the Dialer's HTTP side when a
	// Dialer is set, else the shared keep-alive transport.
	HTTP *http.Client
	// Dialer, when set, owns protocol negotiation: Call attempts the
	// binary framing first and degrades to the SOAP/HTTP path on
	// ErrBinaryUnavailable.
	Dialer *transport.Dialer
	// URL is the endpoint the envelope is POSTed to.
	URL string
}

// httpClient returns the effective *http.Client.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	if c.Dialer != nil {
		return c.Dialer.HTTPClient()
	}
	return transport.OpenDialer().HTTPClient()
}

// Call POSTs the request envelope with the given SOAPAction and decodes the
// result. A remote fault is surfaced as a *service.RemoteError so that
// sentinel errors survive the protocol boundary. Arguments above
// PayloadCeiling always take the SOAP path, where the real codec decides
// whether the envelope fits.
func (c *Client) Call(ctx context.Context, soapAction string, call Call) (service.Value, error) {
	if c.Dialer != nil && argsPayload(call.Args) <= PayloadCeiling {
		v, err := c.callBinary(ctx, soapAction, call)
		if !errors.Is(err, transport.ErrBinaryUnavailable) {
			return v, err
		}
		// Never negotiated, or downgraded mid-session: the identical
		// call re-encodes onto the SOAP path below.
	}
	body, err := EncodeCall(call)
	if err != nil {
		return service.Value{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(body))
	if err != nil {
		return service.Value{}, fmt.Errorf("soap: build request: %w", err)
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	req.Header.Set("SOAPAction", `"`+soapAction+`"`)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return service.Value{}, fmt.Errorf("soap: %w: %w", service.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxEnvelopeBytes))
	if err != nil {
		return service.Value{}, fmt.Errorf("soap: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		// SOAP 1.1 requires faults to use 500; anything else is transport
		// failure.
		return service.Value{}, fmt.Errorf("soap: %w: http status %s", service.ErrUnavailable, resp.Status)
	}
	v, fault, err := DecodeResponse(data)
	if err != nil {
		return service.Value{}, err
	}
	if fault != nil {
		return service.Value{}, fault.RemoteError()
	}
	return v, nil
}

// argsPayload sums the variable-size payload bytes across call arguments.
func argsPayload(args []Arg) int {
	total := 0
	for _, a := range args {
		total += a.Value.PayloadLen()
	}
	return total
}

// callBinary runs one call over the binary fast path. An
// ErrBinaryUnavailable return means "not negotiated — use SOAP"; every
// other outcome (result, remote fault, context cancellation, an
// oversized result) is final and classified exactly as the HTTP path
// would classify it.
func (c *Client) callBinary(ctx context.Context, soapAction string, call Call) (service.Value, error) {
	body, err := EncodeBinCall(call)
	if err != nil {
		return service.Value{}, err
	}
	var v service.Value
	var fault *Fault
	var derr error
	err = c.Dialer.Exchange(ctx, c.URL, BinCallContentType, soapAction, body, func(res transport.BinResult) {
		switch {
		case res.Status == http.StatusRequestEntityTooLarge:
			// The server refused to frame a result whose envelope would not
			// fit: the HTTP path fails decoding the truncated envelope.
			derr = ErrEnvelopeTooLarge
		case res.Status != http.StatusOK && res.Status != http.StatusInternalServerError:
			// Same classification as the HTTP binding: faults ride 500,
			// anything else is transport failure.
			derr = fmt.Errorf("soap: %w: binary status %d", service.ErrUnavailable, res.Status)
		default:
			v, fault, derr = DecodeBinResponse(res.Body)
		}
	})
	if err != nil {
		if errors.Is(err, transport.ErrBinaryUnavailable) {
			return service.Value{}, err
		}
		return service.Value{}, fmt.Errorf("soap: %w: %w", service.ErrUnavailable, err)
	}
	if derr != nil {
		return service.Value{}, derr
	}
	if fault != nil {
		return service.Value{}, fault.RemoteError()
	}
	return v, nil
}

// Handler processes one decoded SOAP call. Implementations are mounted on
// a Server; errors become faults.
type Handler interface {
	ServeSOAP(ctx context.Context, call Call) (service.Value, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, call Call) (service.Value, error)

// ServeSOAP implements Handler.
func (f HandlerFunc) ServeSOAP(ctx context.Context, call Call) (service.Value, error) {
	return f(ctx, call)
}

var _ Handler = (HandlerFunc)(nil)

// NewHTTPHandler wraps a SOAP Handler as an http.Handler: it decodes POSTed
// envelopes, dispatches, and encodes the response or fault. Handler errors
// are classified through service.RemoteCode, preserving well-known error
// kinds across the wire.
func NewHTTPHandler(h Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeFault(w, &Fault{Code: "Client", String: "method " + r.Method + " not allowed; POST required"})
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, MaxEnvelopeBytes))
		if err != nil {
			writeFault(w, &Fault{Code: "Client", String: "read body: " + err.Error()})
			return
		}
		call, err := DecodeCall(data)
		if err != nil {
			writeFault(w, &Fault{Code: "Client", String: err.Error()})
			return
		}
		result, err := h.ServeSOAP(r.Context(), call)
		if err != nil {
			writeFault(w, FaultFromError(err))
			return
		}
		body, err := EncodeResponse(call.Namespace, call.Operation, result)
		if err != nil {
			writeFault(w, &Fault{Code: "Server", String: err.Error()})
			return
		}
		w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
}

// FaultFromError classifies err as a SOAP fault. Remote errors pass their
// code through unchanged; client-side classification (bad arguments,
// unknown operations) maps to the Client fault code.
func FaultFromError(err error) *Fault {
	var re *service.RemoteError
	if errors.As(err, &re) {
		return &Fault{Code: sideOf(re.Code), String: re.Msg, Detail: re.Code}
	}
	code := service.RemoteCode(err)
	return &Fault{Code: sideOf(code), String: err.Error(), Detail: code}
}

// sideOf maps a framework error code to the SOAP 1.1 faultcode side.
func sideOf(code string) string {
	switch code {
	case "NoSuchOperation", "NoSuchService", "BadArgument", "Client",
		"Unauthenticated", "Forbidden":
		return "Client"
	default:
		return "Server"
	}
}

// AuthFaultWriter renders an authentication refusal as a SOAP fault —
// the identity.DenyWriter for gateway faces. code is the framework error
// code ("Unauthenticated" or "Forbidden"); callers decode it back to the
// matching service sentinel through Fault.RemoteError, exactly like any
// other remote fault.
func AuthFaultWriter(w http.ResponseWriter, code, msg string) {
	writeFault(w, &Fault{Code: sideOf(code), String: msg, Detail: code})
}

// writeFault emits a fault envelope with the mandatory 500 status.
func writeFault(w http.ResponseWriter, f *Fault) {
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(EncodeFault(f))
}
