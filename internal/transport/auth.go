// Credential injection: an http.Client whose round trips are signed by
// the caller's home identity and whose responses are verified against
// its trust store, without any protocol client (SOAP, UDDI, events)
// knowing about authentication. The transport layer only moves bytes and
// headers; what a signature means — and whether one is required — is the
// Credentials implementation's business (internal/core/identity.Auth).
package transport

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
)

// tagPattern strips markup from refusal bodies for the diagnostic line.
var tagPattern = regexp.MustCompile(`<[^>]*>`)

// refusalSnippet reduces an error body (XML dispositionReport, SOAP
// fault, plain text) to one bounded diagnostic line: tags stripped,
// whitespace collapsed.
func refusalSnippet(body []byte) string {
	s := tagPattern.ReplaceAllString(string(body), " ")
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 160 {
		s = s[:160] + "…"
	}
	return s
}

// maxVerifiedBody bounds how much response body the verifying round
// tripper will buffer; every framework face bounds its bodies to 1 MiB,
// well below this.
const maxVerifiedBody = 4 << 20

// Credentials signs outbound requests and verifies inbound responses.
// Implementations must be safe for concurrent use.
type Credentials interface {
	// Active reports whether signing is currently enabled; when false the
	// round trip is passed through untouched.
	Active() bool
	// SignRequest stamps auth headers for the given body and returns an
	// opaque exchange token handed back to VerifyResponse.
	SignRequest(h http.Header, body []byte) (exchange string)
	// VerifyResponse checks the response headers against the exchange
	// token and body; a non-nil error fails the round trip.
	VerifyResponse(h http.Header, exchange string, body []byte) error
}

// authRoundTripper signs requests and verifies responses around an
// underlying transport — the shared keep-alive transport, or an injected
// one (a MemNet for socketless simulation). Dialer.HTTPClient builds it.
type authRoundTripper struct {
	creds Credentials
	next  http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (rt *authRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.creds.Active() {
		return rt.next.RoundTrip(req)
	}
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("transport: buffer request body: %w", err)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	exchange := rt.creds.SignRequest(req.Header, body)
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxVerifiedBody))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("transport: buffer response body: %w", err)
	}
	if err := rt.creds.VerifyResponse(resp.Header, exchange, respBody); err != nil {
		// A refusal for an unverified request arrives deliberately
		// unsigned (signing it would bind the server's key to an
		// attacker-chosen nonce), so verification fails by design there.
		// Surface the refusal text for diagnosis — explicitly marked
		// unverified, since anyone on the path could have written it.
		if resp.StatusCode >= 400 && len(respBody) > 0 {
			return nil, fmt.Errorf("transport: peer refused the request — %s (response unverified): %w", refusalSnippet(respBody), err)
		}
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(respBody))
	resp.ContentLength = int64(len(respBody))
	return resp, nil
}
