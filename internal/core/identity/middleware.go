// HTTP enforcement: Require wraps a federation face (the registry's
// /uddi and /peer mounts, a gateway's /services and /events mounts) with
// request verification, caller injection, and response signing. Each
// face keeps its own wire-native error rendering via a DenyWriter — a
// UDDI dispositionReport, a SOAP fault, a plain HTTP status — so clients
// of that face see a typed refusal in the protocol they speak.
package identity

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/service"
)

// maxAuthBody bounds how much request body the middleware will read for
// signature verification; both the UDDI and SOAP faces enforce their own
// 1 MiB limits below this.
const maxAuthBody = 2 << 20

// callerKey carries the verified caller home through request contexts.
type callerKey struct{}

// WithCaller returns ctx annotated with a verified caller home.
func WithCaller(ctx context.Context, home string) context.Context {
	return context.WithValue(ctx, callerKey{}, home)
}

// CallerFromContext returns the verified caller home, "" when the
// request was not authenticated (open mode).
func CallerFromContext(ctx context.Context) string {
	home, _ := ctx.Value(callerKey{}).(string)
	return home
}

// CallerFrom reads the verified caller home off a request.
func CallerFrom(r *http.Request) string { return CallerFromContext(r.Context()) }

// DenyWriter renders an authentication refusal in a face's wire
// protocol. code is service.RemoteCode vocabulary: "Unauthenticated" or
// "Forbidden".
type DenyWriter func(w http.ResponseWriter, code, msg string)

// HTTPDeny is the DenyWriter for plain-HTTP faces (the event hub).
func HTTPDeny(w http.ResponseWriter, code, msg string) {
	status := http.StatusUnauthorized
	if code == "Forbidden" {
		status = http.StatusForbidden
	}
	http.Error(w, msg, status)
}

// Require wraps next with the home-boundary check. With auth nil or in
// open mode requests pass through untouched (caller ""). Once an
// identity is installed every request must carry a valid signature from
// a trusted home (refusals go through deny), the verified caller home is
// injected into the request context, and the response is signed back —
// the server half of the per-operation mutual handshake. ownOnly
// additionally restricts the face to this home's own identity: the
// read-write registry face, which peers have no business on.
func Require(auth *Auth, ownOnly bool, deny DenyWriter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if auth == nil || !auth.Enabled() {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxAuthBody))
		if err != nil {
			deny(w, "Unauthenticated", "read request: "+err.Error())
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		buf := &bufferedResponse{header: make(http.Header)}
		caller, nonce, verr := auth.VerifyRequest(r.Header, body)
		switch {
		case verr != nil:
			deny(buf, remoteCodeOf(verr), verr.Error())
		case ownOnly && caller != auth.Home():
			auth.record(audit.Event{Type: audit.PolicyDeny, Caller: caller,
				Detail: "face " + r.URL.Path + " is private to this home"})
			deny(buf, "Forbidden", "identity: this face is private to home "+auth.Home()+": "+service.ErrForbidden.Error())
		default:
			next.ServeHTTP(buf, r.WithContext(WithCaller(r.Context(), caller)))
		}
		// Sign only when the request itself verified: signing a refusal
		// for an *unverified* request would bind this home's signature to
		// an attacker-chosen nonce — an oracle for forging "authentic"
		// refusals to third parties. Unverified callers get their denial
		// unsigned; a verifying client (transport.Dialer's HTTPClient)
		// surfaces it as an unverified peer refusal.
		if verr == nil {
			auth.SignResponse(buf.header, nonce, buf.body.Bytes())
		}
		buf.flush(w)
	})
}

// remoteCodeOf maps a verification error to the deny code vocabulary.
func remoteCodeOf(err error) string {
	if errors.Is(err, service.ErrForbidden) {
		return "Forbidden"
	}
	return "Unauthenticated"
}

// bufferedResponse captures a handler's response so the middleware can
// sign the complete body before anything reaches the wire.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

// flush replays the buffered response onto the real writer.
func (b *bufferedResponse) flush(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}
