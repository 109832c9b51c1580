// Tests for the binary-native registry protocol: entry/record round
// trips over XML-hostile strings, the server face's dispatch and policy
// (private face, read-only face, per-caller views), error-code parity
// with the dispositionReport mapping, and rejection of malformed
// records.
package uddi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

var hostileEntry = Entry{
	Key:         "uuid:svc-hostile",
	Name:        `<name attr="x">&amp;]]></name>`,
	Description: "line\nbreak\ttab é☃\x00nul",
	AccessPoint: "http://h/soap?q=a&b=<c>",
	TModel:      "IFace",
	WSDL:        `<definitions name="IFace"/>`,
	Categories:  map[string]string{"k<1>": "v&1", "k2": ""},
}

func TestBinEntryRoundTrip(t *testing.T) {
	for _, want := range []Entry{{}, {Key: "k", Name: "n"}, hostileEntry} {
		b := appendBinEntry(nil, &want)
		r := &walReader{b: b}
		got := decodeBinEntry(r)
		if r.err != nil {
			t.Fatalf("%s: %v", want.Key, r.err)
		}
		if len(want.Categories) == 0 {
			want.Categories = nil
		}
		if !entriesEqual(got, want) {
			t.Errorf("round trip %+v → %+v", want, got)
		}
	}
}

// binServe runs one native record through a registry's binary face.
func binServe(s *Server, opts Face, caller string, req []byte) *transport.BinResponse {
	return bodyOf(s.BinHandler(opts).ServeBin(context.Background(), caller,
		&transport.BinRequest{Path: "/uddi", ContentType: BinContentType, Body: req}))
}

// bodyOf returns resp with its reply record in Body, appended the way
// the listener appends it to a reply frame.
func bodyOf(resp *transport.BinResponse) *transport.BinResponse {
	if resp.AppendBody != nil {
		resp.Body, resp.AppendBody = resp.AppendBody(nil), nil
	}
	return resp
}

// decodeBinChanges decodes a binary watch reply.
func decodeBinChanges(b []byte) (changes []Change, next, epoch uint64, resync bool, err error) {
	rep, err := decodeBinChangeList(b, false)
	return rep.changes, rep.next, rep.epoch, rep.resync, err
}

// decodeBinReplChanges decodes a binary replication feed reply.
func decodeBinReplChanges(b []byte) (ReplChanges, error) {
	rep, err := decodeBinChangeList(b, true)
	return ReplChanges{Changes: rep.changes, Next: rep.next, Resync: rep.resync, Epoch: rep.epoch, Leader: rep.leader}, err
}

// peerFace is the read-only face behind view, as a mounted peering is.
func peerFace(view View) Face {
	return Face{ReadOnly: true, ViewFor: func(string) (View, bool) { return view, true }}
}

func TestBinHandlerSaveFindGetDeleteWatch(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var opts Face

	resp := binServe(s, opts, "home-a", encodeBinSaveAll([]Entry{hostileEntry}, time.Hour))
	keys, err := decodeBinKeys(resp.Body)
	if err != nil || len(keys) != 1 || keys[0] != hostileEntry.Key {
		t.Fatalf("save: keys=%v err=%v", keys, err)
	}

	resp = binServe(s, opts, "home-a", encodeBinFind(Query{Name: "%"}))
	entries, seq, err := decodeBinEntries(resp.Body)
	if err != nil || len(entries) != 1 || seq == 0 {
		t.Fatalf("find: entries=%d seq=%d err=%v", len(entries), seq, err)
	}
	if !entriesEqual(entries[0], hostileEntry) {
		t.Fatalf("find returned %+v, want the hostile entry intact", entries[0])
	}

	resp = binServe(s, opts, "home-a", encodeBinGet(hostileEntry.Key))
	entries, _, err = decodeBinEntries(resp.Body)
	if err != nil || len(entries) != 1 {
		t.Fatalf("get: entries=%d err=%v", len(entries), err)
	}

	resp = binServe(s, opts, "home-a", encodeBinWatch(0, 0, 0))
	changes, next, _, resync, err := decodeBinChanges(resp.Body)
	if err != nil || resync || len(changes) != 1 || next != seq {
		t.Fatalf("watch: changes=%d next=%d resync=%v err=%v", len(changes), next, resync, err)
	}
	if changes[0].Op != OpAdd || !entriesEqual(changes[0].Entry, hostileEntry) {
		t.Fatalf("watch change = %+v", changes[0])
	}

	resp = binServe(s, opts, "home-a", encodeBinDelete(hostileEntry.Key))
	if _, err := decodeBinKeys(resp.Body); err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp = binServe(s, opts, "home-a", encodeBinGet(hostileEntry.Key))
	if entries, _, _ := decodeBinEntries(resp.Body); len(entries) != 0 {
		t.Fatal("entry survived delete")
	}
}

// TestBinHandlerErrorParity holds the binary face to the XML face's
// refusal mapping: the same typed sentinels out of the same conditions.
func TestBinHandlerErrorParity(t *testing.T) {
	s := NewServer()
	defer s.Close()

	// Private face, foreign caller → E_userMismatch → ErrForbidden.
	resp := binServe(s, Face{OwnHome: "home-a"}, "home-b", encodeBinFind(Query{}))
	if _, err := decodeBinKeys(resp.Body); !errors.Is(err, service.ErrForbidden) {
		t.Fatalf("foreign caller on private face = %v, want ErrForbidden", err)
	}

	// Read-only face refuses publication.
	resp = binServe(s, Face{ReadOnly: true}, "home-b", encodeBinSaveAll([]Entry{{Name: "x"}}, 0))
	if _, err := decodeBinKeys(resp.Body); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("save on read-only face = %v, want refusal", err)
	}

	// Unmounted peering view refuses service.
	opts := Face{ViewFor: func(string) (View, bool) { return nil, false }}
	resp = binServe(s, opts, "home-b", encodeBinFind(Query{}))
	if _, err := decodeBinKeys(resp.Body); err == nil || !strings.Contains(err.Error(), "peering not enabled") {
		t.Fatalf("unmounted view = %v, want refusal", err)
	}

	// The authentication code the session layer would emit maps to
	// ErrUnauthenticated, mirroring postAt's dispositionReport switch.
	if err := binErrorOf("E_authTokenRequired", "x"); !errors.Is(err, service.ErrUnauthenticated) {
		t.Fatalf("E_authTokenRequired = %v, want ErrUnauthenticated", err)
	}
}

func TestBinHandlerViewFilters(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Save(Entry{Key: "uuid:public", Name: "public"}, time.Hour)
	s.Save(Entry{Key: "uuid:secret", Name: "secret"}, time.Hour)
	opts := Face{ViewFor: func(caller string) (View, bool) {
		return func(e Entry) (Entry, bool) {
			if e.Name == "secret" {
				return Entry{}, false
			}
			e.Name = caller + "/" + e.Name
			return e, true
		}, true
	}}

	resp := binServe(s, opts, "home-b", encodeBinFind(Query{Name: "%"}))
	entries, _, err := decodeBinEntries(resp.Body)
	if err != nil || len(entries) != 1 || entries[0].Name != "home-b/public" {
		t.Fatalf("filtered find = %+v, err=%v", entries, err)
	}

	resp = binServe(s, opts, "home-b", encodeBinWatch(0, 0, 0))
	changes, next, _, _, err := decodeBinChanges(resp.Body)
	if err != nil || len(changes) != 1 || changes[0].Entry.Name != "home-b/public" {
		t.Fatalf("filtered watch = %+v, err=%v", changes, err)
	}
	// The cursor still advances past the hidden change.
	if next != s.Seq() {
		t.Fatalf("cursor %d, want %d", next, s.Seq())
	}

	resp = binServe(s, opts, "home-b", encodeBinGet("uuid:secret"))
	if entries, _, _ := decodeBinEntries(resp.Body); len(entries) != 0 {
		t.Fatal("hidden entry served through get")
	}
}

// TestBinHandlerRefusesNonNativeContent: binary frames carry only
// native records, so every registry face — private, read-only and view —
// answers any other content type with 415 E_unsupported before the store
// sees the request. The body is a well-formed save record: had it been
// dispatched, the journal would have moved.
func TestBinHandlerRefusesNonNativeContent(t *testing.T) {
	s := NewServer()
	defer s.Close()
	faces := map[string]Face{
		"private":   {OwnHome: "home-a"},
		"read-only": {ReadOnly: true},
		"view": {ViewFor: func(string) (View, bool) {
			return func(e Entry) (Entry, bool) { return e, true }, true
		}},
	}
	contentTypes := []string{
		`text/xml; charset="utf-8"`,
		"text/xml",
		"application/soap+xml",
		"application/x-homeconnect-bincall",
		BinContentType + "; v=2",
		"APPLICATION/X-HOMECONNECT-BINUDDI",
		"",
	}
	body := encodeBinSaveAll([]Entry{lampEntry()}, time.Hour)
	for name, opts := range faces {
		h := s.BinHandler(opts)
		for _, ct := range contentTypes {
			before := s.Seq()
			resp := bodyOf(h.ServeBin(context.Background(), "home-a",
				&transport.BinRequest{Path: "/uddi", ContentType: ct, Body: body}))
			if resp.Status != 415 {
				t.Errorf("%s face, %q: status %d, want 415", name, ct, resp.Status)
			}
			if _, err := decodeBinKeys(resp.Body); err == nil || !strings.Contains(err.Error(), "E_unsupported") {
				t.Errorf("%s face, %q: refusal decodes as %v, want E_unsupported", name, ct, err)
			}
			if s.Seq() != before {
				t.Errorf("%s face, %q: journal moved %d -> %d", name, ct, before, s.Seq())
			}
		}
	}
}

func TestBinCodecRejectsMalformed(t *testing.T) {
	s := NewServer()
	defer s.Close()
	bad := map[string][]byte{
		"empty":       nil,
		"bad version": {99, binUDDIFind},
		"unknown op":  {binUDDIVersion, 'Z'},
		"truncated save": append([]byte{binUDDIVersion, binUDDISaveAll},
			0x80, 0x01, 0x05),
		"absurd count": append([]byte{binUDDIVersion, binUDDISaveAll, 0},
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, req := range bad {
		resp := binServe(s, Face{}, "home-a", req)
		if resp.Status == 200 {
			t.Errorf("%s accepted", name)
		}
		if _, err := decodeBinKeys(resp.Body); err == nil {
			t.Errorf("%s: error response decoded as success", name)
		}
	}
	// Malformed responses must not decode.
	if _, err := decodeBinKeys([]byte{binUDDIVersion, binUDDIEntries}); err == nil {
		t.Error("wrong record kind decoded as keys")
	}
	if _, _, err := decodeBinEntries([]byte{binUDDIVersion, binUDDIEntries, 0, 0x90}); err == nil {
		t.Error("truncated entry list decoded")
	}
	if _, _, _, _, err := decodeBinChanges([]byte{binUDDIVersion, binUDDIChanges, 0}); err == nil {
		t.Error("truncated change list decoded")
	}
	// A count of 1<<63 wraps negative as an int; it must fail the
	// decode, not size an allocation.
	if _, err := decodeBinKeys([]byte{binUDDIVersion, binUDDIKeys,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}); err == nil {
		t.Error("key count of 1<<63 decoded")
	}
}

// TestBinFaceRefusesNamelessSave: a save of an entry without a name is
// refused on the binary wire as on the XML one — 400 E_fatalError — and
// stores nothing.
func TestBinFaceRefusesNamelessSave(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for _, entries := range [][]Entry{{{Key: "k1"}}, {lampEntry(), {Key: "k1"}}} {
		resp := binServe(s, Face{}, "home-a", encodeBinSaveAll(entries, time.Hour))
		_, err := decodeBinKeys(resp.Body)
		if resp.Status != 400 || err == nil || !strings.Contains(err.Error(), "E_fatalError: uddi: service without name") {
			t.Fatalf("nameless save: status %d, %v; want 400 E_fatalError", resp.Status, err)
		}
		if s.Seq() != 0 || s.Len() != 0 {
			t.Fatalf("refused save stored entries: seq %d, %d live", s.Seq(), s.Len())
		}
	}
}
