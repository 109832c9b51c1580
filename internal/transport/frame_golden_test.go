// HCB1 frame golden: the framed bytes of every op the binary wire
// carries ('H' hello, 'A' accept, 'E' error, 'Q' request, 'S' response)
// under fixed session keys, so a rewrite of the frame encoders must
// reproduce them exactly. Run with -update-golden to rewrite the file
// after an intended change to the wire.
package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames.golden")

// goldenSessions returns the two ends of one session keyed with fixed
// material: the dialer's send key is the listener's receive key.
func goldenSessions() (dialer, listener *Session) {
	var k1, k2 [32]byte
	for i := range k1 {
		k1[i], k2[i] = byte(i), byte(0xa0+i)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return NewSession("s-golden", "home-b", at, at.Add(time.Hour), k1, k2),
		NewSession("s-golden", "home-a", at, at.Add(time.Hour), k2, k1)
}

// goldenBody is a patterned body of n bytes.
func goldenBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// goldenFrame renders one frame: short ones in full, long ones by
// length, digest and head.
func goldenFrame(b []byte) string {
	if len(b) <= 512 {
		return hex.EncodeToString(b)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("len=%d sha256=%x head=%s", len(b), sum, hex.EncodeToString(b[:48]))
}

// goldenFrames encodes the fixed frame set: requests and responses in
// session order (each consumes a counter), bodies from empty to past the
// point where the body's length takes three bytes, each response with
// its body given whole and appended in place.
func goldenFrames(t *testing.T) []byte {
	t.Helper()
	dialer, listener := goldenSessions()
	var out bytes.Buffer
	emit := func(name string, frame []byte) {
		fmt.Fprintf(&out, "== %s\n%s\n\n", name, goldenFrame(frame))
	}
	emit("H hello", appendFrame(nil, encodeHello([]byte("hello-blob"))))
	emit("H empty hello", appendFrame(nil, encodeHello(nil)))
	emit("A accept", appendFrame(nil, encodeAccept(goldenBody(96))))
	emit("E expired", appendFrame(nil, encodeError(binErrExpired, "session expired; rekey")))
	emit("E refused", appendFrame(nil, encodeError(binErrRefused, "transport: binary protocol disabled on this endpoint")))
	const ct = "application/x-homeconnect-binuddi"
	reqs := []struct {
		name, path, action string
		body               []byte
	}{
		{"Q empty body", "/uddi", "", nil},
		{"Q registry record", "/uddi", "", []byte{1, 'G', 4, 'k', 'e', 'y', '1'}},
		{"Q call with action", "/services/x10:lamp-1", "urn:homeconnect:iface:Lamp#Level", goldenBody(127)},
		{"Q 128-byte body", "/uddi", "", goldenBody(128)},
		{"Q large body", "/uddi", "", goldenBody(70000)},
	}
	for _, q := range reqs {
		ctr := dialer.peekSendCtr()
		frame := requestFrame(nil, dialer, q.path, ct, q.action, q.body)
		emit(q.name, frame)
		payload, _, err := readFrameBytes(frame, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		got, err := decodeRequest(listener, payload)
		if err != nil || got.Ctr != ctr || got.Path != q.path || !bytes.Equal(got.Body, q.body) {
			t.Fatalf("%s: decoded %+v, %v", q.name, got, err)
		}
	}
	resps := []struct {
		name   string
		status int
		body   []byte
	}{
		{"S empty body", 200, nil},
		{"S error status", 421, []byte("replica: writes go to the leader")},
		{"S 127-byte body", 200, goldenBody(127)},
		{"S 16384-byte body", 200, goldenBody(16384)},
		{"S large body", 200, goldenBody(70000)},
	}
	for i, s := range resps {
		ctr := uint64(i + 1)
		_, frame := responseFrame(nil, listener, ctr, &BinResponse{Status: s.status, ContentType: ct, Body: s.body})
		emit(s.name, frame)
		// A body the handler appends in place frames to the same bytes,
		// in a reused buffer still holding an earlier frame's bytes.
		buf := bytes.Repeat([]byte{0xee}, 64)
		_, appended := responseFrame(buf, listener, ctr, &BinResponse{Status: s.status, ContentType: ct,
			AppendBody: func(b []byte) []byte { return append(b, s.body...) }})
		if !bytes.Equal(appended, frame) {
			t.Fatalf("%s: appended body frames to %s, want %s", s.name, goldenFrame(appended), goldenFrame(frame))
		}
		payload, _, err := readFrameBytes(frame, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got, err := decodeResponse(dialer, payload, ctr)
		if err != nil || got.Status != s.status || !bytes.Equal(got.Body, s.body) {
			t.Fatalf("%s: decoded %+v, %v", s.name, got, err)
		}
	}
	return out.Bytes()
}

// TestFrameGolden: every frame op encodes to the recorded bytes.
func TestFrameGolden(t *testing.T) {
	path := filepath.Join("testdata", "frames.golden")
	got := goldenFrames(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("frames differ from %s at line %d:\ngot  %.200s\nwant %.200s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("frames differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
