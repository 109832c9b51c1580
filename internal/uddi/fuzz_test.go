package uddi

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"homeconnect/internal/transport"
)

// binDecoders maps each request record to the decoder for its reply.
var binDecoders = map[byte]func([]byte) error{
	binUDDISaveAll: func(b []byte) error { _, err := decodeBinKeys(b); return err },
	binUDDIDelete:  func(b []byte) error { _, err := decodeBinKeys(b); return err },
	binUDDIFind:    func(b []byte) error { _, _, err := decodeBinEntries(b); return err },
	binUDDIGet:     func(b []byte) error { _, _, err := decodeBinEntries(b); return err },
	binUDDIWatch: func(b []byte) error {
		_, _, _, _, err := decodeBinChanges(b)
		return err
	},
	binUDDIPage:       func(b []byte) error { _, err := decodeBinPage(b); return err },
	binUDDIReplWatch:  func(b []byte) error { _, err := decodeBinReplChanges(b); return err },
	binUDDIReplStatus: func(b []byte) error { _, err := decodeBinReplStatus(b); return err },
}

// FuzzBinHandler: every byte a binary session sends a registry face
// reaches BinHandler. Whatever the content type and body, no face may
// panic; a 200 must decode with the decoder matching the request record;
// a refusal must decode as an error under every decoder and leave the
// journal where it was.
func FuzzBinHandler(f *testing.F) {
	for _, rec := range [][]byte{
		encodeBinSaveAll([]Entry{hostileEntry}, time.Hour),
		encodeBinDelete("uuid:lamp"),
		encodeBinFind(Query{Name: "%", Categories: map[string]string{"k": "v"}}),
		encodeBinGet("uuid:lamp"),
		encodeBinWatch(0, 0, 0),
		encodeBinPageReq("", 1),
		encodeBinPageReq("uuid:lamp", 0),
		encodeBinReplWatchReq(0, 0, 0),
		encodeBinReplStatusReq(),
	} {
		f.Add(BinContentType, rec)
	}
	f.Add(`text/xml; charset="utf-8"`, []byte("<find_service/>"))
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		s := NewServer()
		defer s.Close()
		s.Save(lampEntry(), time.Hour)
		// A cancelled context: a fuzzed watch must not park the target.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		faces := map[string]Face{
			"private":   {OwnHome: "home-a"},
			"read-only": {ReadOnly: true},
			"view": {ViewFor: func(string) (View, bool) {
				return func(e Entry) (Entry, bool) { return e, e.Name != "secret" }, true
			}},
		}
		for name, opts := range faces {
			before := s.Seq()
			resp := bodyOf(s.BinHandler(opts).ServeBin(ctx, "home-a",
				&transport.BinRequest{Path: "/uddi", ContentType: contentType, Body: body}))
			if resp.Status == 200 {
				dec := binDecoders[body[1]]
				if dec == nil {
					t.Fatalf("%s face: 200 for unknown record %q", name, body[1])
				}
				if err := dec(resp.Body); err != nil {
					t.Fatalf("%s face: 200 reply does not decode: %v", name, err)
				}
				continue
			}
			for op, dec := range binDecoders {
				if dec(resp.Body) == nil {
					t.Fatalf("%s face: %d reply decodes as a %q success", name, resp.Status, op)
				}
			}
			if s.Seq() != before {
				t.Fatalf("%s face: refused request moved the journal %d -> %d", name, before, s.Seq())
			}
		}
	})
}

// FuzzRecover: every byte boot recovery reads from a data directory.
// The input becomes a WAL segment (snapshot false) or a snapshot file
// (snapshot true) after its magic, and the directory is opened. Opening
// must never panic; a registry that opens must count what it restored
// consistently under a fixed clock; no entry may come from a frame
// whose CRC fails — nor, in a WAL, from any frame after one; and the
// directory that open left behind, reopened twice after a crash, must
// come back at the same Seq() with the same entries each time.
func FuzzRecover(f *testing.F) {
	wal, snap := recoverSeeds(f)
	f.Add(false, wal)
	f.Add(true, snap)
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	f.Fuzz(func(t *testing.T, snapshot bool, data []byte) {
		dir := t.TempDir()
		name, magic := "wal-0000000000000001.log", walMagic
		if snapshot {
			name, magic = "snap-0000000000000001.snap", snapMagic
		}
		if err := os.WriteFile(filepath.Join(dir, name), append([]byte(magic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Server, error) {
			return NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1,
				Clock: func() time.Time { return goldenNow }})
		}
		s, err := open()
		if err != nil {
			return
		}
		rec := s.Recovery()
		if got := s.Len(); rec.Entries-rec.LapsedAtBoot != got {
			t.Fatalf("recovery restored %d entries, %d lapsed, but Len() = %d", rec.Entries, rec.LapsedAtBoot, got)
		}
		frames := crcValidFrames(data, snapshot)
		entries := s.Find(Query{})
		for _, e := range entries {
			if !slices.ContainsFunc(frames, func(p []byte) bool { return bytes.Contains(p, []byte(e.Key)) }) {
				t.Fatalf("entry %q restored from no CRC-valid frame", e.Key)
			}
		}
		seq, want := s.Seq(), fmt.Sprint(entries)
		s.CrashClose()
		for i := 1; i <= 2; i++ {
			s, err := open()
			if err != nil {
				t.Fatalf("reopen %d of a directory that opened: %v", i, err)
			}
			got, gotSeq := fmt.Sprint(s.Find(Query{})), s.Seq()
			s.CrashClose()
			if gotSeq != seq || got != want {
				t.Fatalf("reopen %d: seq %d, entries %s; first open: seq %d, entries %s", i, gotSeq, got, seq, want)
			}
		}
	})
}

// crcValidFrames returns the payloads of data's leading frames whose CRC
// checks out, up to the first that does not. A snapshot's one frame must
// also end at end of file.
func crcValidFrames(data []byte, snapshot bool) [][]byte {
	var out [][]byte
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + 8 + n
		if end > len(data) || (snapshot && end != len(data)) ||
			crc32.ChecksumIEEE(data[off+8:end]) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		out = append(out, data[off+8:end])
		off = end
	}
	return out
}

// recoverSeeds returns a real WAL (both segments a snapshot leaves,
// joined) and a real snapshot, each without its magic. The entries are
// small so that minimizing an input the fuzzer finds stays quick.
func recoverSeeds(f *testing.F) (wal, snap []byte) {
	dir := f.TempDir()
	s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1,
		Clock: func() time.Time { return goldenNow }})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []Entry{{Key: "k1", Name: "a"}, {Key: "k2", Categories: map[string]string{"r": "d"}}} {
		s.Save(e, time.Hour)
	}
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	s.Save(Entry{Key: "k3", WSDL: "<d/>"}, time.Minute)
	s.Delete("k1")
	s.CrashClose()
	// Every file's frames, after its magic, in sequence order.
	read := func(glob, magic string) []byte {
		m, _ := filepath.Glob(filepath.Join(dir, glob))
		if len(m) == 0 {
			f.Fatalf("no %s written", glob)
		}
		var out []byte
		for _, path := range m {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, data[len(magic):]...)
		}
		return out
	}
	return read("wal-*.log", walMagic), read("snap-*.snap", snapMagic)
}
