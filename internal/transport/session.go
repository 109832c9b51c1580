// Session-keyed authentication for the binary fast path: one handshake
// per connection establishes an HMAC session, so steady-state operations
// pay a MAC instead of the per-operation ed25519 sign/verify the SOAP
// path carries. The handshake is owned by a SessionAuth provider — signed
// by a home identity (internal/core/identity) or anonymous (anon.go); the
// transport only sees opaque blobs and the resulting Session key
// material.
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"time"
)

// Session is one direction-pair of HMAC keys established by a
// handshake, bound to a single binary connection (or one in-process
// lane). Counters are strictly increasing per direction; because every
// connection is serial, a gap or repeat can only mean replay or loss.
type Session struct {
	// ID names the session in audit events; it is derived from the
	// handshake transcript, not from key material.
	ID string
	// Peer is the authenticated remote home; "" on an anonymous session
	// (see anon.go).
	Peer string
	// Established and Expiry bound the session lifetime; an expired
	// session is rekeyed in place by a fresh handshake on the same
	// connection.
	Established time.Time
	Expiry      time.Time

	sendKey [32]byte
	recvKey [32]byte
	// anon marks a session keyed by the anonymous handshake.
	anon bool

	mu      sync.Mutex
	sendCtr uint64
	recvCtr uint64
	// sendMAC/recvMAC are lazily built HMAC states reused (via Reset)
	// across the session's frames, so steady-state MACs skip the key
	// schedule and its allocations. Guarded by mu.
	sendMAC hash.Hash
	recvMAC hash.Hash
	// macSum is scratch for verifyRecvMAC's computed digest.
	macSum [macSize]byte
}

// NewSession assembles a session from handshake-derived material. The
// SessionAuth provider calls this once per completed handshake, with the
// key pair oriented for its own side (send = the key this side MACs
// with).
func NewSession(id, peer string, established, expiry time.Time, send, recv [32]byte) *Session {
	return &Session{ID: id, Peer: peer, Established: established, Expiry: expiry,
		sendKey: send, recvKey: recv}
}

// Expired reports whether the session lifetime has elapsed at now.
func (s *Session) Expired(now time.Time) bool { return now.After(s.Expiry) }

// Age returns the session age at now.
func (s *Session) Age(now time.Time) time.Duration { return now.Sub(s.Established) }

// Anonymous reports whether the session came from an anonymous
// handshake: no peer was authenticated.
func (s *Session) Anonymous() bool { return s.anon }

// stale reports whether the session must be rekeyed before it carries
// another request: its lifetime elapsed, or it is anonymous while its
// provider now runs signed handshakes (an identity was installed).
func (s *Session) stale(auth SessionAuth, now time.Time) bool {
	return s.Expired(now) || (s.anon && auth.SessionSigned())
}

// nextSendCtr consumes one send counter.
func (s *Session) nextSendCtr() uint64 {
	s.mu.Lock()
	s.sendCtr++
	c := s.sendCtr
	s.mu.Unlock()
	return c
}

// peekSendCtr returns the counter the next request will carry.
func (s *Session) peekSendCtr() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendCtr + 1
}

// admitRecvCtr enforces the strictly-increasing receive counter.
func (s *Session) admitRecvCtr(ctr uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctr <= s.recvCtr {
		return fmt.Errorf("transport: replayed or reordered counter %d (last %d)", ctr, s.recvCtr)
	}
	s.recvCtr = ctr
	return nil
}

// appendSendMAC appends the HMAC-SHA256 of b under the send key.
func (s *Session) appendSendMAC(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sendMAC == nil {
		s.sendMAC = hmac.New(sha256.New, s.sendKey[:])
	} else {
		s.sendMAC.Reset()
	}
	s.sendMAC.Write(b)
	return s.sendMAC.Sum(b)
}

// verifyRecvMAC checks the trailing MAC under the receive key and
// returns the payload without it.
func (s *Session) verifyRecvMAC(payload []byte) ([]byte, error) {
	if len(payload) < 1+macSize {
		return nil, fmt.Errorf("transport: payload too short for MAC")
	}
	body, mac := payload[:len(payload)-macSize], payload[len(payload)-macSize:]
	s.mu.Lock()
	if s.recvMAC == nil {
		s.recvMAC = hmac.New(sha256.New, s.recvKey[:])
	} else {
		s.recvMAC.Reset()
	}
	s.recvMAC.Write(body)
	sum := s.recvMAC.Sum(s.macSum[:0])
	s.mu.Unlock()
	if !hmac.Equal(sum, mac) {
		return nil, fmt.Errorf("transport: session MAC verification failed")
	}
	return body, nil
}

// SessionAuth is the handshake provider behind the binary fast path.
// internal/core/identity implements it over the home's ed25519 identity
// and trust store, running anonymous handshakes while no identity is
// installed; Anonymous serves endpoints with no credentials. The
// transport treats hello/accept blobs as opaque.
type SessionAuth interface {
	// SessionSigned reports whether handshakes are signed — an identity
	// is installed. When false the provider runs anonymous handshakes
	// (see anon.go), and any anonymous session it holds ends the moment
	// this turns true.
	SessionSigned() bool
	// NewSessionClient starts one dialing-side handshake.
	NewSessionClient() (SessionClient, error)
	// AcceptSession processes a dialer's hello blob, returning the
	// accept blob and the listener-side session. A refusal (untrusted
	// or unverifiable dialer, replayed hello) is an error.
	AcceptSession(hello []byte) (accept []byte, s *Session, err error)
	// NoteSessionEnd records the end of a session's life: rekeyed true
	// means a fresh handshake replaced it in place, false means the
	// connection (or process) is going away.
	NoteSessionEnd(s *Session, rekeyed bool)
}

// SessionClient is one in-flight dialing-side handshake.
type SessionClient interface {
	// Hello returns the signed hello blob to send.
	Hello() []byte
	// Finish verifies the accept blob and yields the dialer-side
	// session.
	Finish(accept []byte) (*Session, error)
}
