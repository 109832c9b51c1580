// Binary-face adapter: the session-auth counterpart of Require. On the
// binary fast path the caller was authenticated once, at the session
// handshake, and every frame is MACed under the session keys — so there
// are no per-request headers to verify and no response to sign. An
// anonymous session (open mode) carries caller "", which the transport
// only dispatches while the home has no identity: it passes through
// exactly as an unsigned request passes Require in open mode. What
// remains of the middleware's job is the home-boundary policy and caller
// injection, which BinFace applies before handing the tunneled request
// to the face's ordinary HTTP handler. Refusals render through the same
// DenyWriter the HTTP face uses, so clients decode identical typed
// errors on either path.
package identity

import (
	"bytes"
	"context"
	"net/http"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// BinFace adapts an HTTP face handler to the binary fast path. The
// tunneled request body, content type, and SOAPAction are replayed onto
// next as a POST carrying the session-verified caller in its context.
// ownOnly restricts the face to this home's own identity, exactly as
// Require does once an identity is installed.
func BinFace(auth *Auth, ownOnly bool, deny DenyWriter, next http.Handler) transport.BinHandler {
	return transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
		buf := &bufferedResponse{header: make(http.Header)}
		if ownOnly && auth != nil && caller != "" && caller != auth.Home() {
			auth.record(audit.Event{Type: audit.PolicyDeny, Caller: caller,
				Detail: "face " + req.Path + " is private to this home"})
			deny(buf, "Forbidden", "identity: this face is private to home "+auth.Home()+": "+service.ErrForbidden.Error())
			return binResponseOf(buf)
		}
		r, err := http.NewRequestWithContext(WithCaller(ctx, caller), http.MethodPost,
			"http://homeconnect.bin"+req.Path, bytes.NewReader(req.Body))
		if err != nil {
			deny(buf, "Unauthenticated", "identity: rebuild tunneled request: "+err.Error())
			return binResponseOf(buf)
		}
		if req.ContentType != "" {
			r.Header.Set("Content-Type", req.ContentType)
		}
		if req.Action != "" {
			r.Header.Set("SOAPAction", `"`+req.Action+`"`)
		}
		next.ServeHTTP(buf, r)
		return binResponseOf(buf)
	})
}

// binResponseOf converts a buffered HTTP response into a binary frame
// response.
func binResponseOf(b *bufferedResponse) *transport.BinResponse {
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	return &transport.BinResponse{
		Status:      status,
		ContentType: b.header.Get("Content-Type"),
		Body:        b.body.Bytes(),
	}
}
