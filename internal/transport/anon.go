// Anonymous sessions: the handshake open-mode endpoints run, so homes
// without an identity ride the same binary wire as secured ones. Each
// side contributes an ephemeral X25519 key and the dialer a nonce; the
// ECDH secret is folded into per-direction HMAC keys exactly as a signed
// handshake's is, and the result is an ordinary Session with Peer "".
//
// Nothing is signed, so an anonymous session authenticates nobody: it
// gives per-link integrity (a frame altered in flight fails its MAC) and
// replay protection (strict counters), the trust open HTTP gives and no
// more. A listener holding an identity refuses anonymous hellos, and an
// open listener refuses signed ones, so a mode mismatch degrades to
// SOAP/HTTP where each side's own rules apply. The moment a provider
// turns signed (an identity is installed) every anonymous session it
// holds is treated as expired: the listener answers its next request
// with a rekey demand and the dialer rekeys before reuse, so no request
// arriving after the switch is served anonymously.
package transport

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Anonymous-handshake blob prefixes, in the signed handshake's style.
const (
	anonHelloV1  = "homeconnect.sess.anon.v1"
	anonAcceptV1 = "homeconnect.sess.anon.accept.v1"
	anonKeysV1   = "homeconnect.sess.anon.keys.v1"
)

// anonSessionTTL is the anonymous session lifetime used where no
// provider configures one (NewDialer(nil), NewBinServer(nil)).
const anonSessionTTL = 10 * time.Minute

// Anonymous is the session provider for endpoints with no credentials at
// all: every handshake is anonymous. NewDialer(nil) and
// NewBinServer(nil) use it.
var Anonymous SessionAuth = anonAuth{}

// anonAuth implements SessionAuth with anonymous handshakes only.
type anonAuth struct{}

func (anonAuth) SessionSigned() bool                      { return false }
func (anonAuth) NewSessionClient() (SessionClient, error) { return NewAnonSessionClient() }
func (anonAuth) NoteSessionEnd(*Session, bool)            {}

func (anonAuth) AcceptSession(hello []byte) ([]byte, *Session, error) {
	return AcceptAnonSession(hello, anonSessionTTL)
}

// IsAnonHello reports whether a hello blob opens an anonymous handshake.
// Signed providers use it to refuse such hellos with a clear reason.
func IsAnonHello(hello []byte) bool {
	return bytes.HasPrefix(hello, []byte(anonHelloV1+"\n"))
}

// anonClient is one in-flight dialing-side anonymous handshake.
type anonClient struct {
	eph   *ecdh.PrivateKey
	nonce string
	hello []byte
}

// NewAnonSessionClient starts a dialing-side anonymous handshake: a fresh
// ephemeral key and nonce, sent in the clear.
func NewAnonSessionClient() (SessionClient, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("transport: ephemeral key: %w", err)
	}
	var raw [16]byte
	_, _ = rand.Read(raw[:])
	nonce := hex.EncodeToString(raw[:])
	hello := anonHelloV1 + "\n" + nonce + "\n" + hex.EncodeToString(eph.PublicKey().Bytes())
	return &anonClient{eph: eph, nonce: nonce, hello: []byte(hello)}, nil
}

// Hello returns the anonymous hello blob.
func (c *anonClient) Hello() []byte { return c.hello }

// Finish derives the dialer-side session from the listener's accept. A
// signed accept (or anything else) is refused: this dialer cannot verify
// it, and must fall back rather than pretend.
func (c *anonClient) Finish(accept []byte) (*Session, error) {
	fields := strings.Split(string(accept), "\n")
	if len(fields) != 3 || fields[0] != anonAcceptV1 {
		return nil, fmt.Errorf("transport: not an anonymous session accept")
	}
	peerEphHex, ttlMS := fields[1], fields[2]
	ms, err := strconv.ParseInt(ttlMS, 10, 64)
	if err != nil || ms <= 0 {
		return nil, fmt.Errorf("transport: bad anonymous session lifetime %q", ttlMS)
	}
	ownEphHex := hex.EncodeToString(c.eph.PublicKey().Bytes())
	c2s, s2c, sid, err := DeriveSessionKeys(c.eph, peerEphHex,
		anonKeysV1+"\n"+c.nonce+"\n"+ownEphHex+"\n"+peerEphHex+"\n"+ttlMS)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s := NewSession(sid, "", now, now.Add(time.Duration(ms)*time.Millisecond), c2s, s2c)
	s.anon = true
	return s, nil
}

// AcceptAnonSession runs the listener half of an anonymous handshake:
// contribute an ephemeral key and answer with the session lifetime. A
// hello that is not anonymous is refused.
func AcceptAnonSession(hello []byte, ttl time.Duration) (accept []byte, s *Session, err error) {
	fields := strings.Split(string(hello), "\n")
	if len(fields) != 3 || fields[0] != anonHelloV1 {
		return nil, nil, fmt.Errorf("transport: not an anonymous session hello; this endpoint runs open and takes no signed sessions")
	}
	nonce, peerEphHex := fields[1], fields[2]
	if len(nonce) != 32 {
		return nil, nil, fmt.Errorf("transport: malformed anonymous hello nonce")
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: ephemeral key: %w", err)
	}
	ownEphHex := hex.EncodeToString(eph.PublicKey().Bytes())
	ttlMS := strconv.FormatInt(ttl.Milliseconds(), 10)
	c2s, s2c, sid, err := DeriveSessionKeys(eph, peerEphHex,
		anonKeysV1+"\n"+nonce+"\n"+peerEphHex+"\n"+ownEphHex+"\n"+ttlMS)
	if err != nil {
		return nil, nil, err
	}
	now := time.Now()
	s = NewSession(sid, "", now, now.Add(ttl), s2c, c2s)
	s.anon = true
	return []byte(anonAcceptV1 + "\n" + ownEphHex + "\n" + ttlMS), s, nil
}

// DeriveSessionKeys folds the ECDH secret between eph and the peer's
// ephemeral key (hex) and the handshake transcript into the
// per-direction keys (c2s: dialer→listener) and a session ID that is a
// keyed digest of the transcript, safe to log. Both handshake kinds —
// signed and anonymous — derive their keys here; the transcript string
// binds the derivation to one handshake.
func DeriveSessionKeys(eph *ecdh.PrivateKey, peerEphHex, transcript string) (c2s, s2c [32]byte, id string, err error) {
	peerRaw, err := hex.DecodeString(peerEphHex)
	if err != nil {
		return c2s, s2c, "", fmt.Errorf("transport: bad ephemeral key encoding")
	}
	peerKey, err := ecdh.X25519().NewPublicKey(peerRaw)
	if err != nil {
		return c2s, s2c, "", fmt.Errorf("transport: bad ephemeral key")
	}
	shared, err := eph.ECDH(peerKey)
	if err != nil {
		return c2s, s2c, "", fmt.Errorf("transport: ECDH: %w", err)
	}
	base := hmac.New(sha256.New, shared)
	base.Write([]byte(transcript))
	root := base.Sum(nil)
	derive := func(label string) (out [32]byte) {
		m := hmac.New(sha256.New, root)
		m.Write([]byte(label))
		copy(out[:], m.Sum(nil))
		return out
	}
	c2s = derive("c2s")
	s2c = derive("s2c")
	idm := derive("id")
	return c2s, s2c, hex.EncodeToString(idm[:8]), nil
}
