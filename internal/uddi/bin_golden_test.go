// Binary record golden: the binuddi request records the client encodes
// and the reply records the binary face answers them with, for a fixed
// script on a fixed registry and clock. The file pins the record bytes
// of every bulk path (save_services, find and get replies, the watch
// 'C' and repl_watch 'H' change lists, state pages, error records), so
// a rewrite of the encoders must reproduce them exactly. Run with
// -update-golden to rewrite it after an intended change to the binary
// wire.
package uddi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/transport"
)

// binGoldenStep is one scripted binary exchange: the face it goes to
// and the request, or raw record bytes for a malformed one.
type binGoldenStep struct {
	face string
	req  *request
	raw  []byte
}

// binGoldenScript is the fixed script. The registry starts empty under
// epoch 2; the first save loads goldenEntries, the second enough device
// entries for a state page and a feed batch to cross pageBytes.
func binGoldenScript() []binGoldenStep {
	devices := make([]Entry, 0, 64)
	for i := 5; i < 69; i++ {
		devices = append(devices, deviceEntry(i))
	}
	return []binGoldenStep{
		{face: "private", req: &request{op: opSave, entries: goldenEntries(), ttl: time.Minute}},
		{face: "private", req: &request{op: opSave, entries: []Entry{{Key: "uuid:one", Name: "one", WSDL: "<definitions/>"}}}},
		{face: "private", req: &request{op: opFind}},
		{face: "private", req: &request{op: opFind, query: Query{Name: "dev%", Categories: map[string]string{"homeconnect.middleware": "dev1"}}}},
		{face: "private", req: &request{op: opGet, key: "uuid:many"}},
		{face: "private", req: &request{op: opGet, key: "uuid:none"}},
		{face: "peer", req: &request{op: opFind}},
		{face: "private", req: &request{op: opWatch, since: 0, epoch: 2}},
		{face: "private", req: &request{op: opWatch, since: 3, epoch: 1}},
		{face: "peer", req: &request{op: opWatch, since: 0}},
		{face: "private", req: &request{op: opReplWatch, since: 0, epoch: 2}},
		{face: "private", req: &request{op: opReplWatch, since: 0, epoch: 9}},
		{face: "private", req: &request{op: opPage, after: "", epoch: 1}},
		{face: "peer", req: &request{op: opPage, after: "uuid:bare", epoch: 0}},
		{face: "private", req: &request{op: opReplStatus}},
		{face: "replica", req: &request{op: opSave, entries: []Entry{{Name: "r"}}}},
		{face: "private", req: &request{op: opSave, entries: []Entry{{Key: "uuid:noname"}}}},
		{face: "private", raw: []byte{binUDDIVersion, 'Z'}},
		{face: "private", raw: []byte{9, binUDDIFind}},
		{face: "private", raw: []byte{binUDDIVersion, binUDDISaveAll, 0, 200}},
		{face: "private", req: &request{op: opSave, entries: devices, ttl: time.Hour}},
		{face: "private", req: &request{op: opDelete, key: "uuid:hostile"}},
		{face: "private", req: &request{op: opDelete, key: "uuid:gone"}},
		{face: "private", req: &request{op: opWatch, since: 8, epoch: 2}},
		{face: "private", req: &request{op: opReplWatch, since: 8, epoch: 2}},
		{face: "private", req: &request{op: opPage, after: "", epoch: 2}},
		{face: "private", req: &request{op: opPage, after: "uuid:svc-dev5:d-00045", epoch: 2}},
		{face: "peer", req: &request{op: opWatch, since: 80}},
		{face: "private", req: &request{op: opWatch, since: 70, epoch: 2}},
		{face: "private", req: &request{op: opReplWatch, since: 70, epoch: 2}},
		{face: "peer", req: &request{op: opWatch, since: 70}},
	}
}

// binGoldenRecord renders one record: short ones in full, long ones by
// length, digest and head, so the file stays readable.
func binGoldenRecord(b []byte) string {
	if len(b) <= 2048 {
		return hex.EncodeToString(b)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("len=%d sha256=%x head=%s", len(b), sum, hex.EncodeToString(b[:64]))
}

// binGoldenReplies runs the script and renders every request and reply.
func binGoldenReplies(t *testing.T) []byte {
	t.Helper()
	clock := func() time.Time { return goldenNow }
	s := NewManualServer()
	defer s.Close()
	s.SetClock(clock)
	if err := s.SetEpoch(2, "http://vsr-a.example/uddi"); err != nil {
		t.Fatal(err)
	}
	rep := NewManualServer()
	defer rep.Close()
	rep.SetClock(clock)
	rep.SetReplicaOf("http://vsr-a.example/uddi")
	faces := map[string]transport.BinHandler{
		"private": s.BinHandler(Face{}),
		"peer":    s.BinHandler(peerFace(goldenView)),
		"replica": rep.BinHandler(Face{}),
	}
	var out bytes.Buffer
	for i, step := range binGoldenScript() {
		rec := step.raw
		if step.req != nil {
			rec = encodeBinRequest(step.req)
		}
		resp := faces[step.face].ServeBin(context.Background(), "", &transport.BinRequest{
			Path: "/uddi", ContentType: BinContentType, Body: rec})
		fmt.Fprintf(&out, "== %02d %s\nQ %s\nR %d %s %s\n\n", i, step.face,
			binGoldenRecord(rec), resp.Status, resp.ContentType, binGoldenRecord(bodyOf(resp).Body))
	}
	return out.Bytes()
}

// TestBinRecordGolden: the binary face answers the fixed script with the
// recorded request and reply bytes.
func TestBinRecordGolden(t *testing.T) {
	path := filepath.Join("testdata", "bin_records.golden")
	got := binGoldenReplies(t)
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
			t.Fatalf("binary records differ from %s at line %d:\ngot  %.300s\nwant %.300s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("binary records differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
