// Fuzz target for the listener half of the signed session handshake:
// hello blobs are the first bytes any host that can open a binary
// connection gets a secured home to parse and verify.
package identity

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/service"
)

// fuzzHelloAt is the listener's clock for every fuzzed hello: the
// timestamp the committed valid hello carries, so it stays inside the
// skew window.
var fuzzHelloAt = time.UnixMilli(1767225600000) // 2026-01-01T00:00:00Z

// fuzzIdentity is a fixed identity for the fuzz fixtures.
func fuzzIdentity(tb testing.TB, home string, seed byte) *Identity {
	tb.Helper()
	id, err := FromSeed(home, bytes.Repeat([]byte{seed}, 32))
	if err != nil {
		tb.Fatal(err)
	}
	return id
}

// corpusBytes reads the []byte value of a committed corpus entry.
func corpusBytes(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzAcceptSession/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		tb.Fatalf("corpus entry %s is not one go test fuzz v1 value", name)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(v)
}

// FuzzAcceptSession: a secured Auth that trusts one home gets arbitrary
// hello blobs. It must never panic; a refusal must return neither an
// accept blob nor a session and must classify as ErrUnauthenticated; an
// accepted hello must name the trusted home and be refused when
// replayed. The committed valid_hello seed — that home's signed hello,
// stamped fuzzHelloAt — must be accepted once.
func FuzzAcceptSession(f *testing.F) {
	peer := fuzzIdentity(f, "cottage", 7)
	self := fuzzIdentity(f, "apartment", 9)
	listener := func(tb testing.TB) *Auth {
		a := NewAuth(self.Home())
		if err := a.SetIdentity(self); err != nil {
			tb.Fatal(err)
		}
		if err := a.Trust(peer.Home(), peer.PublicKey()); err != nil {
			tb.Fatal(err)
		}
		a.setClock(func() time.Time { return fuzzHelloAt })
		return a
	}
	if _, _, err := listener(f).AcceptSession(corpusBytes(f, "valid_hello")); err != nil {
		f.Fatalf("the committed valid hello was refused: %v", err)
	}
	f.Fuzz(func(t *testing.T, hello []byte) {
		a := listener(t)
		accept, s, err := a.AcceptSession(hello)
		if err != nil {
			if accept != nil || s != nil {
				t.Fatalf("refusal (%v) returned accept %q and session %v", err, accept, s)
			}
			if !errors.Is(err, service.ErrUnauthenticated) {
				t.Fatalf("refusal %v is not ErrUnauthenticated", err)
			}
			return
		}
		if s == nil || len(accept) == 0 || s.Peer != peer.Home() {
			t.Fatalf("accepted hello yields accept %q and session %+v", accept, s)
		}
		if accept, s, err := a.AcceptSession(hello); err == nil || accept != nil || s != nil {
			t.Fatalf("replayed hello accepted: %q %v %v", accept, s, err)
		}
	})
}
