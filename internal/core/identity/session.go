// Session-keyed authentication: the handshake provider behind the
// binary fast-path wire protocol (internal/transport). One signed mutual
// handshake per connection replaces the per-operation ed25519
// sign/verify the SOAP path pays: each side contributes an ephemeral
// X25519 key authenticated by its long-lived home identity, the ECDH
// shared secret is folded into per-direction HMAC-SHA256 session keys,
// and steady-state operations then cost one MAC each. Sessions have a
// bounded lifetime and are rekeyed in place by a fresh handshake on the
// same link; establish, rekey and expiry all land in the audit log.
//
// The hello reuses the per-operation machinery's replay defenses — the
// ±maxSkew timestamp window and the nonce cache — so a recorded
// handshake can no more be replayed than a recorded request.
//
// Without an identity the same Auth runs the transport's anonymous
// handshake instead (transport/anon.go): open homes still get the binary
// wire, with per-link integrity and replay protection but no
// authenticated peer. The two kinds never mix: an Auth with an identity
// refuses anonymous hellos, an open one refuses signed hellos, and
// installing an identity ends every anonymous session at its next
// request.
package identity

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// defaultSessionTTL is the session lifetime bound: how long one
// handshake's keys may authenticate traffic before a rekey is forced.
const defaultSessionTTL = 10 * time.Minute

// Signed-string prefixes, in the reqMessage/respMessage style.
const (
	sessHelloV1  = "homeconnect.sess.hello.v1"
	sessAcceptV1 = "homeconnect.sess.accept.v1"
	sessKeysV1   = "homeconnect.sess.keys.v1"
)

// SetSessionTTL overrides the session lifetime (tests and operators
// wanting tighter rekey cadence). Non-positive restores the default.
func (a *Auth) SetSessionTTL(d time.Duration) {
	if d <= 0 {
		d = 0
	}
	a.sessTTL.Store(int64(d))
}

// sessionTTL returns the effective session lifetime.
func (a *Auth) sessionTTL() time.Duration {
	if d := a.sessTTL.Load(); d > 0 {
		return time.Duration(d)
	}
	return defaultSessionTTL
}

// SessionSigned reports whether this Auth runs signed session
// handshakes — an identity is installed. Open mode runs anonymous ones.
func (a *Auth) SessionSigned() bool { return a.Enabled() }

// sessionClient is one in-flight dialing-side handshake.
type sessionClient struct {
	a     *Auth
	eph   *ecdh.PrivateKey
	nonce string
	hello []byte
}

// NewSessionClient starts a dialing-side handshake: a fresh ephemeral
// X25519 key and a hello blob signed by the home identity — or, in open
// mode, an anonymous hello.
func (a *Auth) NewSessionClient() (transport.SessionClient, error) {
	id := a.id.Load()
	if id == nil {
		return transport.NewAnonSessionClient()
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: ephemeral key: %w", err)
	}
	var raw [16]byte
	_, _ = rand.Read(raw[:])
	nonce := hex.EncodeToString(raw[:])
	ts := strconv.FormatInt(a.nowFn().UnixMilli(), 10)
	ephHex := hex.EncodeToString(eph.PublicKey().Bytes())
	msg := sessHelloV1 + "\n" + id.Home() + "\n" + ts + "\n" + nonce + "\n" + ephHex
	hello := msg + "\n" + id.sign([]byte(msg))
	return &sessionClient{a: a, eph: eph, nonce: nonce, hello: []byte(hello)}, nil
}

// Hello returns the signed hello blob.
func (c *sessionClient) Hello() []byte { return c.hello }

// Finish verifies the listener's accept blob — the peer must be trusted
// and its signature must bind to this hello's nonce and ephemeral key —
// and derives the dialer-side session.
func (c *sessionClient) Finish(accept []byte) (*transport.Session, error) {
	a := c.a
	id := a.id.Load()
	if id == nil {
		return nil, fmt.Errorf("identity: identity removed mid-handshake")
	}
	fields := strings.Split(string(accept), "\n")
	if len(fields) != 5 || fields[0] != sessAcceptV1 {
		return nil, fmt.Errorf("identity: malformed session accept: %w", service.ErrUnauthenticated)
	}
	peer, peerEphHex, ttlMS, sig := fields[1], fields[2], fields[3], fields[4]
	key, ok := a.keyFor(peer)
	if !ok {
		return nil, fmt.Errorf("identity: accepting home %q is not trusted here: %w", peer, service.ErrUnauthenticated)
	}
	ephHex := hex.EncodeToString(c.eph.PublicKey().Bytes())
	msg := sessAcceptV1 + "\n" + peer + "\n" + c.nonce + "\n" + ephHex + "\n" + peerEphHex + "\n" + ttlMS
	sigRaw, err := hex.DecodeString(sig)
	if err != nil || !ed25519.Verify(key, []byte(msg), sigRaw) {
		return nil, fmt.Errorf("identity: session accept from %q does not verify: %w", peer, service.ErrUnauthenticated)
	}
	ms, err := strconv.ParseInt(ttlMS, 10, 64)
	if err != nil || ms <= 0 {
		return nil, fmt.Errorf("identity: bad session lifetime %q: %w", ttlMS, service.ErrUnauthenticated)
	}
	c2s, s2c, sid, err := deriveSessionKeys(c.eph, peerEphHex, id.Home(), peer, c.nonce)
	if err != nil {
		return nil, err
	}
	now := a.nowFn()
	ttl := time.Duration(ms) * time.Millisecond
	s := transport.NewSession(sid, peer, now, now.Add(ttl), c2s, s2c)
	a.record(audit.Event{Type: audit.SessionEstablish, Caller: peer,
		Detail: fmt.Sprintf("session %s established (dialer), lifetime %s", sid, ttl)})
	return s, nil
}

// AcceptSession runs the listener half: verify the dialer's signed
// hello (trust, skew window, nonce freshness), contribute an ephemeral
// key, and answer with a signed accept bound to the hello. In open mode
// it accepts anonymous hellos only.
func (a *Auth) AcceptSession(hello []byte) (accept []byte, s *transport.Session, err error) {
	id := a.id.Load()
	if id == nil {
		accept, s, err = transport.AcceptAnonSession(hello, a.sessionTTL())
		if err != nil {
			a.record(audit.Event{Type: audit.AuthRefused, Detail: err.Error()})
			return nil, nil, fmt.Errorf("identity: %w: %w", err, service.ErrUnauthenticated)
		}
		a.record(audit.Event{Type: audit.SessionEstablish,
			Detail: fmt.Sprintf("anonymous session %s established (listener), lifetime %s", s.ID, a.sessionTTL())})
		return accept, s, nil
	}
	if transport.IsAnonHello(hello) {
		a.record(audit.Event{Type: audit.AuthRefused, Detail: "anonymous session hello; this home requires an identity"})
		return nil, nil, fmt.Errorf("identity: anonymous session refused: home %s requires a trusted identity: %w", a.home, service.ErrUnauthenticated)
	}
	fields := strings.Split(string(hello), "\n")
	if len(fields) != 6 || fields[0] != sessHelloV1 {
		a.record(audit.Event{Type: audit.AuthRefused, Detail: "malformed session hello"})
		return nil, nil, fmt.Errorf("identity: malformed session hello: %w", service.ErrUnauthenticated)
	}
	peer, ts, nonce, peerEphHex, sig := fields[1], fields[2], fields[3], fields[4], fields[5]
	key, ok := a.keyFor(peer)
	if !ok {
		a.record(audit.Event{Type: audit.AuthRefused, Caller: peer, Detail: "session hello from untrusted home"})
		return nil, nil, fmt.Errorf("identity: home %q is not trusted here: %w", peer, service.ErrUnauthenticated)
	}
	msg := sessHelloV1 + "\n" + peer + "\n" + ts + "\n" + nonce + "\n" + peerEphHex
	sigRaw, err := hex.DecodeString(sig)
	if err != nil || !ed25519.Verify(key, []byte(msg), sigRaw) {
		a.record(audit.Event{Type: audit.AuthRefused, Caller: peer, Detail: "session hello signature does not verify"})
		return nil, nil, fmt.Errorf("identity: session hello from %q does not verify: %w", peer, service.ErrUnauthenticated)
	}
	ms, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		a.record(audit.Event{Type: audit.AuthRefused, Caller: peer, Detail: "unparseable hello timestamp " + ts})
		return nil, nil, fmt.Errorf("identity: bad hello timestamp %q: %w", ts, service.ErrUnauthenticated)
	}
	now := a.nowFn()
	stamp := time.UnixMilli(ms)
	if d := now.Sub(stamp); d > maxSkew || d < -maxSkew {
		a.record(audit.Event{Type: audit.ReplayRejected, Caller: peer,
			Detail: fmt.Sprintf("hello timestamp %s outside ±%s skew window", stamp.Format(time.RFC3339), maxSkew)})
		return nil, nil, fmt.Errorf("identity: hello timestamp outside ±%s skew window: %w", maxSkew, service.ErrUnauthenticated)
	}
	// The nonce cache is shared with per-operation auth; the prefix keeps
	// the two protocols from colliding.
	if !a.admitNonce("sess\x00"+nonce, stamp, now) {
		a.record(audit.Event{Type: audit.ReplayRejected, Caller: peer, Detail: "session hello nonce replayed"})
		return nil, nil, fmt.Errorf("identity: session hello replayed: %w", service.ErrUnauthenticated)
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("identity: ephemeral key: %w", err)
	}
	ephHex := hex.EncodeToString(eph.PublicKey().Bytes())
	ttl := a.sessionTTL()
	ttlMS := strconv.FormatInt(ttl.Milliseconds(), 10)
	// The accept signature binds to the hello's nonce and ephemeral key,
	// so a recorded accept cannot answer any other handshake.
	signMsg := sessAcceptV1 + "\n" + id.Home() + "\n" + nonce + "\n" + peerEphHex + "\n" + ephHex + "\n" + ttlMS
	blob := sessAcceptV1 + "\n" + id.Home() + "\n" + ephHex + "\n" + ttlMS + "\n" + id.sign([]byte(signMsg))
	c2s, s2c, sid, err := deriveSessionKeys(eph, peerEphHex, peer, id.Home(), nonce)
	if err != nil {
		return nil, nil, err
	}
	s = transport.NewSession(sid, peer, now, now.Add(ttl), s2c, c2s)
	a.record(audit.Event{Type: audit.SessionEstablish, Caller: peer,
		Detail: fmt.Sprintf("session %s established (listener), lifetime %s", sid, ttl)})
	return []byte(blob), s, nil
}

// NoteSessionEnd records the end of a session's life in the audit log.
func (a *Auth) NoteSessionEnd(s *transport.Session, rekeyed bool) {
	if s == nil {
		return
	}
	typ := audit.SessionExpire
	verb := "ended"
	if rekeyed {
		typ = audit.SessionRekey
		verb = "rekeyed in place"
	}
	a.record(audit.Event{Type: typ, Caller: s.Peer,
		Detail: fmt.Sprintf("session %s %s after %s", s.ID, verb, s.Age(a.nowFn()).Round(time.Millisecond))})
}

// deriveSessionKeys derives a signed session's keys through the
// transport's one derivation, over a transcript naming both homes and
// the hello nonce. dialerHome and listenerHome orient the derivation so
// both sides agree which key is which.
func deriveSessionKeys(eph *ecdh.PrivateKey, peerEphHex, dialerHome, listenerHome, nonce string) (c2s, s2c [32]byte, id string, err error) {
	c2s, s2c, id, err = transport.DeriveSessionKeys(eph, peerEphHex,
		sessKeysV1+"\n"+dialerHome+"\n"+listenerHome+"\n"+nonce)
	if err != nil {
		return c2s, s2c, "", fmt.Errorf("identity: %w: %w", err, service.ErrUnauthenticated)
	}
	return c2s, s2c, id, nil
}
