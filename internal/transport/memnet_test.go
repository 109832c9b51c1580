// Tests for the in-memory HTTP network: synchronous handler dispatch,
// host registration/removal, and the signed-client path over it.
package transport

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestMemNetRoutesByHost(t *testing.T) {
	m := NewMemNet()
	m.Handle("home-a", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "a:%s", r.URL.Path)
	}))
	m.Handle("home-b", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "b")
	}))
	c := m.Client()

	resp, err := c.Get("http://home-a/uddi")
	if err != nil {
		t.Fatalf("get home-a: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "a:/uddi" {
		t.Errorf("home-a: %d %q", resp.StatusCode, body)
	}

	resp, err = c.Get("http://home-b/x")
	if err != nil {
		t.Fatalf("get home-b: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Errorf("home-b status = %d", resp.StatusCode)
	}
}

func TestMemNetUnknownAndRemovedHost(t *testing.T) {
	m := NewMemNet()
	if _, err := m.Client().Get("http://nowhere/"); err == nil || !strings.Contains(err.Error(), "no such host") {
		t.Errorf("unknown host error = %v", err)
	}
	m.Handle("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	m.Handle("h", nil) // dead home
	if _, err := m.Client().Get("http://h/"); err == nil {
		t.Error("removed host still reachable")
	}
}

func TestMemNetRequestBodyDelivered(t *testing.T) {
	m := NewMemNet()
	var got string
	m.Handle("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got = string(b)
	}))
	resp, err := m.Client().Post("http://h/", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if got != "payload" {
		t.Errorf("handler saw body %q", got)
	}
}

// memCreds is a minimal Credentials stamping a header and checking its echo.
type memCreds struct{}

func (memCreds) Active() bool { return true }
func (memCreds) SignRequest(h http.Header, body []byte) string {
	h.Set("X-Sig", "signed")
	return "xch"
}
func (memCreds) VerifyResponse(h http.Header, exchange string, body []byte) error {
	if h.Get("X-Echo") != "signed" || exchange != "xch" {
		return fmt.Errorf("bad echo")
	}
	return nil
}

func TestMemNetAuthClientSignsOverMemNet(t *testing.T) {
	m := NewMemNet()
	m.Handle("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo", r.Header.Get("X-Sig"))
	}))
	resp, err := m.Dialer(memCreds{}).HTTPClient().Get("http://h/")
	if err != nil {
		t.Fatalf("signed round trip over memnet: %v", err)
	}
	resp.Body.Close()
}
