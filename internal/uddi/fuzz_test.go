package uddi

import (
	"context"
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
	binUDDIReplSync:   func(b []byte) error { _, err := decodeBinReplState(b); return err },
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
		encodeBinReplSyncReq(1),
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
		faces := map[string]BinOptions{
			"private":   {OwnHome: "home-a"},
			"read-only": {ReadOnly: true},
			"view": {ViewFor: func(string) (View, bool) {
				return func(e Entry) (Entry, bool) { return e, e.Name != "secret" }, true
			}},
		}
		for name, opts := range faces {
			before := s.Seq()
			resp := s.BinHandler(opts).ServeBin(ctx, "home-a",
				&transport.BinRequest{Path: "/uddi", ContentType: contentType, Body: body})
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
