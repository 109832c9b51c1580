package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// hugeHeader is a frame header claiming the largest frame readFrame
// accepts.
func hugeHeader() []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxBinFrame)
	return hdr[:]
}

// TestFrameHeaderAllocatesWhatArrives: connections that send a frame
// header claiming the largest frame and one payload byte cost the server
// what arrived, not what the headers claim — a peer that has not even
// handshaken cannot make it hold 4 MiB per connection.
func TestFrameHeaderAllocatesWhatArrives(t *testing.T) {
	const conns = 16
	srv := NewBinServer(nil)
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		cli, sv := net.Pipe()
		defer cli.Close()
		go srv.ServeConn(sv)
		// A net.Pipe write returns once the other end has read it, so
		// the second write lands inside the payload read, after the
		// server sized its buffer for the frame.
		if _, err := cli.Write(hugeHeader()); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("%d connections sending one frame header each allocated %d MiB", conns, grew>>20)
	}
}

// TestLargeFrameGrowsOnce: a frame far larger than maxIdleFrameBuf, read
// into a nil buffer, costs room for its header and then two buffers —
// the bounded one its first maxIdleFrameBuf bytes arrive in, then one of
// the frame's length — not a copy through every size between; read
// again into the buffer it returned, it costs nothing.
func TestLargeFrameGrowsOnce(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 338<<10)
	frame := appendFrame(nil, payload)
	var rd bytes.Reader
	var buf, got []byte
	read := func() {
		rd.Reset(frame)
		p, nbuf, err := readFrame(&rd, buf)
		if err != nil {
			t.Fatal(err)
		}
		got = p
		buf = nbuf[:0]
	}
	fresh := func() { buf = nil; read() }
	// The race detector's instrumentation makes slices.Grow allocate the
	// zeroed slice it appends, so the nil-buffer counts hold only without it.
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(10, fresh); allocs > 3 {
			t.Errorf("reading a %d KiB frame into a nil buffer allocated %.0f times, want the header and at most 2 buffers", len(payload)>>10, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fresh()
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(payload)+maxIdleFrameBuf+16<<10); grew > bound {
			t.Errorf("reading a %d KiB frame allocated %d KiB, want at most %d KiB", len(payload)>>10, grew>>10, bound>>10)
		}
	}
	fresh()
	if !bytes.Equal(got, payload) {
		t.Error("payload read back differs")
	}
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		t.Errorf("reading a frame into a buffer that holds it allocated %.0f times, want 0", allocs)
	}
}

// FuzzBinConn: arbitrary bytes are one connection's inbound stream into
// an anonymous BinServer — the bytes any host can send before, during
// and after a handshake. The server must not panic, and ServeConn must
// return once the input ends. The reply decoders a dialer runs on what
// a server sends back get the same bytes as a payload: decodeError
// as they come, and decodeResponse under a valid session MAC as well, so
// its parser sees them; a response it accepts must re-encode to itself.
func FuzzBinConn(f *testing.F) {
	hc, err := NewAnonSessionClient()
	if err != nil {
		f.Fatal(err)
	}
	hello := appendFrame(nil, encodeHello(hc.Hello()))
	client, server := sessionPair(time.Hour)
	req := appendFrame(nil, encodeRequest(nil, client, "/uddi", "text/xml", "", []byte("<find/>")))
	resp := responsePayload(server, 1, 200, "text/xml", []byte("<ok/>"))
	f.Add(append(append([]byte{}, hello...), req...))
	f.Add(req)
	f.Add(hugeHeader())
	f.Add(appendFrame(nil, resp[:len(resp)-macSize]))
	f.Add(appendFrame(nil, encodeError(binErrBad, "malformed frame")))
	f.Fuzz(func(t *testing.T, in []byte) {
		srv := NewBinServer(nil)
		srv.Handle("/", BinHandlerFunc(func(ctx context.Context, caller string, req *BinRequest) *BinResponse {
			return &BinResponse{Status: 200, ContentType: req.ContentType, Body: req.Body}
		}))
		defer srv.Close()
		cli, sv := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.ServeConn(sv)
			close(served)
		}()
		go io.Copy(io.Discard, cli)
		_, _ = cli.Write(in) // fails once the server hangs up
		cli.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return after its input ended")
		}

		// Both decoders run after the caller's switch on the op byte.
		_, _, _ = decodeError(append([]byte{opError}, in...))
		client, server := sessionPair(time.Hour)
		if _, err := decodeResponse(client, in, 0); err == nil && len(in) < 1+macSize {
			t.Fatal("a payload shorter than its MAC verified")
		}
		payload := server.appendSendMAC(append([]byte{opResponse}, in...))
		ctr, _ := binary.Uvarint(in)
		r, err := decodeResponse(client, payload, ctr)
		if err != nil {
			return
		}
		again := responsePayload(server, r.Ctr, r.Status, r.ContentType, r.Body)
		r2, err := decodeResponse(client, again, r.Ctr)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", r, err)
		}
		if r2.Status != r.Status || r2.ContentType != r.ContentType || !bytes.Equal(r2.Body, r.Body) {
			t.Fatalf("round trip changed the response: %+v -> %+v", r, r2)
		}
	})
}
