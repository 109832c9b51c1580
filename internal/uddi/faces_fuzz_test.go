package uddi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/transport"
	"homeconnect/internal/xmltree"
)

// faceCase is one mount FuzzRegistryFaces serves each request on: the
// face, the caller and whether the registry behind it is a replica.
type faceCase struct {
	face    Face
	caller  string
	replica bool
}

var registryFaces = map[string]faceCase{
	"private":   {face: Face{OwnHome: "home-a"}, caller: "home-a"},
	"foreign":   {face: Face{OwnHome: "home-a"}, caller: "home-b"},
	"read-only": {face: Face{ReadOnly: true}, caller: "home-b"},
	"view":      {face: peerFace(goldenView), caller: "home-b"},
	"unmounted": {face: Face{ReadOnly: true, ViewFor: func(string) (View, bool) { return nil, false }}, caller: "home-b"},
	"replica":   {face: Face{}, caller: "home-a", replica: true},
}

// facesFixture is the registry every wire starts from: three entries,
// one hidden by goldenView, a deletion, an epoch bump and a fixed clock.
func facesFixture(replica bool) *Server {
	s := NewManualServer()
	s.SetClock(func() time.Time { return goldenNow })
	s.Save(Entry{Key: "uuid:lamp", Name: "jini:lamp-1", TModel: "Lamp", Categories: map[string]string{"room": "living"}}, time.Minute)
	s.Save(Entry{Key: "uuid:secret", Name: "secret", TModel: "Vault"}, time.Hour)
	_ = s.SetEpoch(2, "http://vsr-a.example/uddi")
	s.Save(Entry{Key: "uuid:tv", Name: "havi:tv", TModel: "Display", Description: "den tv"}, 2*time.Hour)
	s.Delete("uuid:lamp")
	if replica {
		s.SetReplicaOf("http://vsr-a.example/uddi")
	}
	return s
}

// fuzzAlphabet holds the bytes both codecs carry verbatim: XML cannot
// carry NUL or most control bytes, and trims whitespace around element
// text, so strings are folded onto it. XML's special characters stay in.
const fuzzAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789:-/._%<>&\"'"

func foldFuzz(s string) string {
	if len(s) > 48 {
		s = s[:48]
	}
	b := []byte(s)
	for i, c := range b {
		if strings.IndexByte(fuzzAlphabet, c) < 0 {
			b[i] = fuzzAlphabet[int(c)%len(fuzzAlphabet)]
		}
	}
	return string(b)
}

// fuzzRequest builds one typed request: op picks the operation (op%9)
// and its variant (op/9).
func fuzzRequest(op uint8, key, name, text string, since, epoch uint64, ttlMS uint16) request {
	key, name, text = foldFuzz(key), foldFuzz(name), foldFuzz(text)
	e := Entry{Key: key, Name: name, TModel: text, WSDL: text}
	if op/9%2 == 1 {
		e.Description, e.Categories = text, map[string]string{"room": text}
	}
	ttl := time.Duration(ttlMS) * time.Millisecond
	switch op % 9 {
	case 0:
		return request{op: opSave, name: "save_service", entries: []Entry{e}, ttl: ttl}
	case 1:
		var entries []Entry
		for i := 0; i < int(op/9%3); i++ {
			entries = append(entries, e, Entry{Key: text, Name: key})
		}
		return request{op: opSave, name: "save_services", entries: entries, ttl: ttl}
	case 2:
		return request{op: opDelete, name: "delete_service", key: key}
	case 3:
		q := Query{Name: name, TModel: text}
		if op/9%2 == 1 {
			q.Categories = map[string]string{"room": key}
		}
		return request{op: opFind, name: "find_service", query: q}
	case 4:
		return request{op: opGet, name: "get_serviceDetail", key: key}
	case 5:
		return request{op: opWatch, name: "watch", since: since, epoch: epoch}
	case 6:
		return request{op: opPage, name: "state_page", after: key, epoch: epoch}
	case 7:
		return request{op: opReplStatus, name: "repl_status"}
	}
	return request{op: opReplWatch, name: "repl_watch", since: since, epoch: epoch}
}

// faceOutcome is what a client learns from one reply: the status, and
// either the refusal's code and info or the decoded reply, rendered
// canonically.
type faceOutcome struct {
	status int
	code   string
	info   string
	reply  string
}

// serveXMLWire runs req through the XML codec: the client's document, the
// HTTP face, the client's decoder.
func serveXMLWire(t *testing.T, s *Server, fc faceCase, req *request) faceOutcome {
	t.Helper()
	hreq := httptest.NewRequest("POST", "http://registry.test/uddi", strings.NewReader(string(encodeXMLRequest(req))))
	rec := httptest.NewRecorder()
	s.HTTPHandler(fc.face, func(*http.Request) string { return fc.caller }).ServeHTTP(rec, hreq)
	out := faceOutcome{status: rec.Code}
	root, err := xmltree.Parse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("xml wire: reply does not parse: %v", err)
	}
	if root.Name.Local == "dispositionReport" && root.Attr("result") == "error" {
		out.code, out.info = root.ChildText("errCode"), root.ChildText("errInfo")
		return out
	}
	rep, err := decodeXMLReply(req, root)
	if err != nil {
		t.Fatalf("xml wire: %d reply does not decode: %v", rec.Code, err)
	}
	out.reply = canonReply(rep)
	return out
}

// serveBinWire runs req through the binary codec: the client's record,
// the binary face, the client's decoder.
func serveBinWire(t *testing.T, s *Server, fc faceCase, req *request) faceOutcome {
	t.Helper()
	resp := bodyOf(s.BinHandler(fc.face).ServeBin(context.Background(), fc.caller,
		&transport.BinRequest{Path: "/uddi", ContentType: BinContentType, Body: encodeBinRequest(req)}))
	out := faceOutcome{status: resp.Status}
	if op, r, err := binReaderFor(resp.Body); err == nil && op == binUDDIError {
		out.code, out.info = r.str(), r.str()
		if r.err != nil {
			t.Fatalf("binary wire: error record does not decode: %v", r.err)
		}
		return out
	}
	rep, err := decodeBinReplyTo(req, resp.Body)
	if err != nil {
		t.Fatalf("binary wire: %d reply does not decode: %v", resp.Status, err)
	}
	out.reply = canonReply(rep)
	return out
}

// canonReply renders a decoded reply with its deadlines as Unix
// milliseconds, the precision both wires carry. Keys the registry minted
// for keyless entries are random, so they render as "minted".
func canonReply(rep reply) string {
	ms := func(t time.Time) int64 {
		if t.IsZero() {
			return 0
		}
		return t.UnixMilli()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "keys=%q seq=%d next=%d epoch=%d resync=%v leader=%q status=%+v\n",
		rep.keys, rep.seq, rep.next, rep.epoch, rep.resync, rep.leader, rep.status)
	for _, e := range rep.entries {
		fmt.Fprintf(&b, "entry %+v\n", e)
	}
	for _, c := range rep.changes {
		fmt.Fprintf(&b, "change %d %s %d %+v\n", c.Seq, c.Op, ms(c.Expires), c.Entry)
	}
	p := rep.page
	fmt.Fprintf(&b, "page seq=%d epoch=%d leader=%q boundary=%d next=%q\n", p.Seq, p.Epoch, p.Leader, p.Boundary, p.Next)
	for i, e := range p.Entries {
		fmt.Fprintf(&b, "pageEntry %d %+v\n", ms(p.Deadlines[i]), e)
	}
	return b.String()
}

// FuzzRegistryFaces is the contract that the two wires are one registry:
// each request is built as a typed value, encoded by both codecs' client
// encoders, and served on every face — private, foreign caller,
// read-only, view, unmounted and replica — starting from the same
// registry. The two replies must agree: status, errCode, errInfo (up to
// the operation name a binary save quotes), and the
// decoded keys, entries, changes, page and status. A refusal must leave
// the journal where it was, and a served request must move it alike on
// both wires.
func FuzzRegistryFaces(f *testing.F) {
	for op := uint8(0); op < 27; op++ {
		f.Add(op, "uuid:tv", "havi:tv", "Display", uint64(1), uint64(2), uint16(60000))
	}
	f.Add(uint8(0), "k1", "", "", uint64(0), uint64(0), uint16(0))
	f.Add(uint8(2), "", "", "", uint64(0), uint64(0), uint16(0))
	f.Add(uint8(8), "", "", "", uint64(0), uint64(9), uint16(0))
	f.Fuzz(func(t *testing.T, op uint8, key, name, text string, since, epoch uint64, ttlMS uint16) {
		req := fuzzRequest(op, key, name, text, since, epoch, ttlMS)
		keyless := false
		for _, e := range req.entries {
			keyless = keyless || e.Key == ""
		}
		for fname, fc := range registryFaces {
			xs, bs := facesFixture(fc.replica), facesFixture(fc.replica)
			before := xs.Seq()
			// Each wire decodes its own copy: serve may rewrite a request.
			xreq, breq := req, req
			x, b := serveXMLWire(t, xs, fc, &xreq), serveBinWire(t, bs, fc, &breq)
			xs.Close()
			bs.Close()
			if keyless {
				x.reply, b.reply = mintedKeys(x.reply), mintedKeys(b.reply)
			}
			// One binary save record carries both save_service and
			// save_services, so refusals quoting the operation name it as
			// the batch.
			if req.name == "save_service" {
				x.info = strings.ReplaceAll(x.info, "save_service", "save_services")
			}
			if x != b {
				t.Fatalf("%s face, %s: the wires disagree\nxml:    %+v\nbinary: %+v", fname, req.name, x, b)
			}
			if xs.Seq() != bs.Seq() {
				t.Fatalf("%s face, %s: journal at %d over XML, %d over binary", fname, req.name, xs.Seq(), bs.Seq())
			}
			if x.code != "" && xs.Seq() != before {
				t.Fatalf("%s face, %s: refusal %s moved the journal %d -> %d", fname, req.name, x.code, before, xs.Seq())
			}
		}
	})
}

// mintedKeys blanks the service keys in a canonical save reply: the
// registry mints a random key for an entry saved without one.
func mintedKeys(canon string) string {
	if !strings.HasPrefix(canon, "keys=[") {
		return canon
	}
	end := strings.Index(canon, "] ")
	return "keys=minted" + canon[end+1:]
}
