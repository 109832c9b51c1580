// Process-local binary links: when the dialed authority belongs to a
// BinServer living in this same process (the common case for tests,
// benchmarks, and single-process multi-home deployments — the same
// situation the gateway's procGateways loopback already exploits), the
// dialer's link carries its frames through a direct function call
// instead of a socket. The lane only moves frames: the dialer frames its
// hello or request exactly as for TCP, the listener parses that frame
// and answers it with the same BinServer.answer a socket's frame loop
// calls, and the dialer parses the framed reply — CRC, session MAC and
// replay counters included. The bytes on the "wire" are identical to the
// TCP path; only the kernel is skipped.
package transport

import (
	"context"
	"sync"
)

// localBin maps listening authorities ("127.0.0.1:41230") to their
// in-process binary servers.
var (
	localMu  sync.RWMutex
	localBin = map[string]*BinServer{}
)

// RegisterLocal publishes a BinServer under its listening authority so
// dialers in the same process short-circuit the socket. Servers call it
// from Start and undo it with UnregisterLocal on Close.
func RegisterLocal(authority string, s *BinServer) {
	if authority == "" || s == nil {
		return
	}
	localMu.Lock()
	localBin[authority] = s
	localMu.Unlock()
}

// UnregisterLocal withdraws an authority from the local registry.
func UnregisterLocal(authority string) {
	localMu.Lock()
	delete(localBin, authority)
	localMu.Unlock()
}

// lookupLocal finds the in-process server for an authority, if any.
func lookupLocal(authority string) *BinServer {
	localMu.RLock()
	s := localBin[authority]
	localMu.RUnlock()
	return s
}

// laneTrip carries one frame to the lane's server the way a socket
// would, on the caller's goroutine: the listener parses
// the frame (CRC included) and answers it under the caller's context,
// and the reply frame is parsed back the same way. A reply that ends the
// link ends the lane's listener side, so the next round trip fails as a
// closed connection's would.
func (l *binLink) laneTrip(ctx context.Context, frame []byte) ([]byte, error) {
	p := l.peer
	if p == nil {
		return nil, errLaneClosed
	}
	defer p.releaseBuffers()
	payload, nbuf, err := readFrameBytes(frame, p.buf)
	p.buf = nbuf
	var reply []byte
	keep := false
	if err == nil {
		reply, keep = l.lane.answer(ctx, p, payload)
	}
	if !keep {
		l.lane.end(p)
		l.peer = nil
	}
	if reply == nil {
		return nil, errLaneClosed
	}
	payload, l.buf, err = readFrameBytes(reply, l.buf)
	return payload, err
}

// readFrameBytes parses one complete frame held in memory, reading the
// payload into buf (grown as needed, returned as nbuf for reuse).
func readFrameBytes(frame, buf []byte) (payload, nbuf []byte, err error) {
	r := byteReader{b: frame}
	return readFrame(&r, buf)
}

// byteReader is an allocation-free io.Reader over a byte slice (the
// local path's stand-in for the socket).
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, errLaneClosed
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
