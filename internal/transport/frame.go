// Binary fast-path framing: the compact wire encoding negotiated between
// framework-owned endpoints (gateway↔gateway calls, VSR watch/save/find,
// peer replication pulls). The format reuses the WAL's field-encoding
// style from internal/uddi/wal.go — op byte, uvarint lengths, CRC frame —
// because that encoder has already proven itself on the durability path:
//
//	connection preamble: the 4 bytes "HCB1" (BinMagic), written once by
//	the dialing side so a listener can demultiplex binary connections
//	from ordinary HTTP on the same port.
//
//	frame: u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
//	payload: op byte, then op-specific fields. Strings and byte blobs are
//	uvarint length + bytes; integers are uvarints.
//
// Ops:
//
//	'H' hello    dialer → listener: an opaque, signed handshake blob
//	             (see SessionAuth). Also sent mid-connection to rekey an
//	             expired session in place.
//	'A' accept   listener → dialer: the opaque handshake reply.
//	'E' error    listener → dialer: a refusal or session fault, as a
//	             (code, message) pair. Pre-session and session-expired
//	             conditions travel this way.
//	'Q' request  one framed request: replay counter, path, content
//	             type, action, body, then a 32-byte HMAC-SHA256 over
//	             everything before it under the session's send key.
//	'S' response replay counter (echoing the request), status, content
//	             type, body, MAC likewise.
//
// SOAP-over-HTTP stays byte-identical as the ingress/interop fallback for
// anything that does not negotiate.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// BinMagic is the connection preamble a dialer writes before its first
// frame; a byte stream that does not open with it is ordinary HTTP.
const BinMagic = "HCB1"

// Frame op bytes.
const (
	opHello    = 'H'
	opAccept   = 'A'
	opError    = 'E'
	opRequest  = 'Q'
	opResponse = 'S'
)

// maxBinFrame bounds a frame read so a corrupt or hostile length word
// cannot ask for gigabytes — the WAL's recovery bound, for the same
// reason.
const maxBinFrame = 4 << 20

// maxIdleFrameBuf is the largest frame buffer a connection keeps once
// its frames are small again. Buffers are reused so small frames
// allocate nothing, and a run of large frames (a batched save, a replica
// catch-up) shares one large buffer: dropping it after every large frame
// would re-grow it for the next one. The first small frame after such a
// run drops it, so it is not pinned for the life of the connection.
const maxIdleFrameBuf = 64 << 10

// trimFrameBuf returns b for reuse, or nil when b's capacity exceeds
// maxIdleFrameBuf but the frame it last held did not.
func trimFrameBuf(b []byte) []byte {
	if cap(b) > maxIdleFrameBuf && len(b) <= maxIdleFrameBuf {
		return nil
	}
	return b
}

// frameReadBuf sizes the buffered reader every connection reads its
// frames through, handshake included: a frame under it costs one read
// call for header and payload together, and a larger payload is read
// straight into the frame buffer past the reader.
const frameReadBuf = 4 << 10

// frameReader returns *rd, first wrapping conn in a frameReadBuf reader
// if there is none yet.
func frameReader(rd **bufio.Reader, conn io.Reader) *bufio.Reader {
	if *rd == nil {
		*rd = bufio.NewReaderSize(conn, frameReadBuf)
	}
	return *rd
}

// macSize is the length of the HMAC-SHA256 trailer on request and
// response payloads.
const macSize = 32

// Error codes carried by 'E' frames.
const (
	binErrRefused = "refused" // handshake rejected (untrusted, unverifiable, replay)
	binErrExpired = "expired" // session lifetime elapsed; dialer should rekey
	binErrBad     = "bad"     // malformed frame or MAC/counter failure
)

// appendBinString appends a uvarint-length-prefixed byte string.
func appendBinString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBinBytes appends a uvarint-length-prefixed blob.
func appendBinBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// binReader walks a frame payload, latching the first error so call
// sites read fields without per-field checks — the walReader pattern.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: truncated frame at %s", what)
	}
}

func (r *binReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bytes(what string) []byte {
	if r.err != nil {
		return nil
	}
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *binReader) str(what string) string { return string(r.bytes(what)) }

// appendFrame appends the length/CRC header and payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, payload []byte) error {
	frame := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	_, err := w.Write(frame)
	return err
}

// frameHead is the room a frame's header takes ahead of its payload; a
// payload encoded straight into a frame buffer starts after it, and
// sealFrame fills it in.
var frameHead [8]byte

// sealFrame fills in the length/CRC header reserved at frame[:8] for the
// payload that follows it, and returns frame.
func sealFrame(frame []byte) []byte {
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame
}

// requestFrame encodes one request frame into buf's storage: the MAC'd
// 'Q' payload goes straight after the header, consuming one send
// counter, so the request is encoded once, in the buffer it is sent from.
func requestFrame(buf []byte, s *Session, path, contentType, action string, body []byte) []byte {
	return sealFrame(encodeRequest(append(buf[:0], frameHead[:]...), s, path, contentType, action, body))
}

// responseFrame encodes the reply frame to request ctr into buf's
// storage, the MAC'd 'S' payload straight after the header, and returns
// the grown buffer and the frame. The body, Body or what AppendBody
// appends, is written in place too: room for the longest length prefix
// is left ahead of it, and once its length is known the header and
// fields move up against the prefix it needed. The frame then starts up
// to binary.MaxVarintLen64-1 bytes into the buffer.
func responseFrame(buf []byte, s *Session, ctr uint64, resp *BinResponse) (nbuf, frame []byte) {
	b := slices.Grow(buf[:0], 8+1+3*binary.MaxVarintLen64+len(resp.ContentType)+binary.MaxVarintLen64+len(resp.Body)+macSize)
	b = appendResponseFields(append(b, frameHead[:]...), ctr, resp.Status, resp.ContentType)
	fields := len(b)
	b = append(b, make([]byte, binary.MaxVarintLen64)...)
	at := len(b)
	if resp.AppendBody != nil {
		b = resp.AppendBody(b)
	} else {
		b = append(b, resp.Body...)
	}
	b = slices.Grow(b, macSize)
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(len(b)-at))
	copy(b[at-k:at], prefix[:k])
	shift := binary.MaxVarintLen64 - k
	copy(b[shift:], b[:fields])
	frame = b[shift:]
	payload := s.appendSendMAC(frame[8:])
	frame = sealFrame(frame[:8+len(payload)])
	return b[:shift+len(frame)], frame
}

// readFrame reads one frame from r into buf, returning the verified
// payload. The returned slice aliases buf. A buffer too small for the
// frame grows to at most maxIdleFrameBuf until that many payload bytes
// have arrived, so a bare header costs what it claims only up to that;
// once they have, it grows straight to the frame's length, so a large
// frame costs at most two buffers, not a copy through every size between.
// The header is read into buf too (an array of its own would escape
// through r, an allocation per frame), so a reused buffer reads a frame
// it can hold without allocating.
func readFrame(r io.Reader, buf []byte) (payload, nbuf []byte, err error) {
	if cap(buf) < 8 {
		buf = make([]byte, 8)
	}
	buf = buf[:8]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n > maxBinFrame {
		return nil, buf, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	want := binary.LittleEndian.Uint32(buf[4:8])
	for buf = buf[:0]; len(buf) < n; {
		if len(buf) == cap(buf) {
			size := n
			if len(buf) < maxIdleFrameBuf {
				size = min(n, maxIdleFrameBuf)
			}
			buf = slices.Grow(buf, size-len(buf))
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, buf, err
		}
		buf = buf[:end]
	}
	if crc32.ChecksumIEEE(buf) != want {
		return nil, buf, fmt.Errorf("transport: frame CRC mismatch")
	}
	return buf, buf, nil
}

// binRequest is a decoded 'Q' payload.
type binRequest struct {
	Ctr         uint64
	Path        string
	ContentType string
	Action      string
	Body        []byte
}

// binResponse is a decoded 'S' payload.
type binResponse struct {
	Ctr         uint64
	Status      int
	ContentType string
	Body        []byte
}

// encodeRequest appends a MAC'd 'Q' payload to dst under the session's
// send key, consuming one send counter. dst is grown once, for the whole
// payload and its MAC.
func encodeRequest(dst []byte, s *Session, path, contentType, action string, body []byte) []byte {
	ctr := s.nextSendCtr()
	start := len(dst)
	b := slices.Grow(dst, 1+5*binary.MaxVarintLen64+len(path)+len(contentType)+len(action)+len(body)+macSize)
	b = append(b, opRequest)
	b = binary.AppendUvarint(b, ctr)
	b = appendBinString(b, path)
	b = appendBinString(b, contentType)
	b = appendBinString(b, action)
	b = appendBinBytes(b, body)
	return b[:start+len(s.appendSendMAC(b[start:]))]
}

// decodeRequest parses and MAC-verifies a 'Q' payload under the
// session's receive key, enforcing the strictly-increasing replay
// counter. The op byte has already been consumed by the caller's switch.
func decodeRequest(s *Session, payload []byte) (binRequest, error) {
	body, err := s.verifyRecvMAC(payload)
	if err != nil {
		return binRequest{}, err
	}
	r := &binReader{b: body, off: 1} // skip op
	var q binRequest
	q.Ctr = r.uvarint("counter")
	q.Path = r.str("path")
	q.ContentType = r.str("content-type")
	q.Action = r.str("action")
	q.Body = r.bytes("body")
	if r.err != nil {
		return binRequest{}, r.err
	}
	if err := s.admitRecvCtr(q.Ctr); err != nil {
		return binRequest{}, err
	}
	return q, nil
}

// appendResponseFields appends an 'S' payload's op byte and the fields
// ahead of its body.
func appendResponseFields(b []byte, ctr uint64, status int, contentType string) []byte {
	b = append(b, opResponse)
	b = binary.AppendUvarint(b, ctr)
	b = binary.AppendUvarint(b, uint64(status))
	return appendBinString(b, contentType)
}

// decodeResponse parses and MAC-verifies an 'S' payload, checking the
// echoed counter against the request it answers.
func decodeResponse(s *Session, payload []byte, wantCtr uint64) (binResponse, error) {
	body, err := s.verifyRecvMAC(payload)
	if err != nil {
		return binResponse{}, err
	}
	r := &binReader{b: body, off: 1}
	var resp binResponse
	resp.Ctr = r.uvarint("counter")
	resp.Status = int(r.uvarint("status"))
	resp.ContentType = r.str("content-type")
	resp.Body = r.bytes("body")
	if r.err != nil {
		return binResponse{}, r.err
	}
	if resp.Ctr != wantCtr {
		return binResponse{}, fmt.Errorf("transport: response counter %d does not answer request %d", resp.Ctr, wantCtr)
	}
	return resp, nil
}

// encodeHello wraps an opaque handshake blob in an 'H' payload.
func encodeHello(blob []byte) []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen64+len(blob))
	b = append(b, opHello)
	return appendBinBytes(b, blob)
}

// encodeAccept wraps an opaque handshake reply in an 'A' payload.
func encodeAccept(blob []byte) []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen64+len(blob))
	b = append(b, opAccept)
	return appendBinBytes(b, blob)
}

// encodeError builds an 'E' payload.
func encodeError(code, msg string) []byte {
	b := make([]byte, 0, 1+len(code)+len(msg)+16)
	b = append(b, opError)
	b = appendBinString(b, code)
	return appendBinString(b, msg)
}

// decodeBlob parses the opaque blob out of an 'H' or 'A' payload.
func decodeBlob(payload []byte) ([]byte, error) {
	r := &binReader{b: payload, off: 1}
	blob := r.bytes("handshake blob")
	if r.err != nil {
		return nil, r.err
	}
	return blob, nil
}

// decodeError parses an 'E' payload.
func decodeError(payload []byte) (code, msg string, err error) {
	r := &binReader{b: payload, off: 1}
	code = r.str("error code")
	msg = r.str("error message")
	return code, msg, r.err
}
