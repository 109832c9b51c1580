// XML reply golden: the HTTP face's reply bytes, status and content type
// for every registry operation and refusal, on a fixed registry and
// clock. The file was recorded before the registry's two wire codecs
// shared one dispatch, so that dispatch is held to the bytes the
// hand-written XML handlers produced. Run with -update-golden to
// rewrite it after an intended change to the XML wire.
package uddi

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/xml_replies.golden")

// goldenView hides the entry named "secret" and stamps every other one
// with the serving home, as a peer's export view does.
func goldenView(e Entry) (Entry, bool) {
	if e.Name == "secret" {
		return Entry{}, false
	}
	e = e.Clone()
	if e.Categories == nil {
		e.Categories = make(map[string]string)
	}
	e.Categories["home"] = "home-a"
	return e, true
}

// goldenFaces returns the faces the golden exchanges run against: the
// private face of s, a read-only peer face of s behind goldenView, and
// the private face of rep, a replica.
func goldenFaces(s, rep *Server) map[string]http.Handler {
	return map[string]http.Handler{
		"private": s.Handler(),
		"peer":    s.HTTPHandler(peerFace(goldenView), nil),
		"replica": rep.Handler(),
	}
}

// goldenExchanges is the fixed script: each step is a face, an HTTP
// method and a request document, run in order against one registry.
var goldenExchanges = []struct{ face, method, body string }{
	{"private", http.MethodGet, ""},
	{"private", http.MethodPost, "not xml"},
	{"private", http.MethodPost, "<bogus/>"},
	{"private", http.MethodPost, `<save_service><service serviceKey="uuid:lamp" name="jini:lamp-1" accessPoint="http://10.0.0.1:8800/lamp" tModel="Lamp"><description>Living &lt;room&gt; lamp</description><category keyName="room" keyValue="living"/><wsdl>&lt;definitions name="Lamp"/&gt;</wsdl></service><ttlms>60000</ttlms></save_service>`},
	{"private", http.MethodPost, `<save_service><service serviceKey="k1"/></save_service>`},
	{"private", http.MethodPost, `<save_service/>`},
	{"private", http.MethodPost, `<save_service><service serviceKey="k2" name="n"/><ttlms>soon</ttlms></save_service>`},
	{"private", http.MethodPost, `<save_services><ttlms>120000</ttlms><service serviceKey="uuid:secret" name="secret" tModel="Vault"/><service serviceKey="uuid:tv" name="havi:tv" accessPoint="http://gw/tv" tModel="Display"><category keyName="room" keyValue="den"/><category keyName="a&amp;b" keyValue="&quot;q&quot;"/></service></save_services>`},
	{"private", http.MethodPost, `<save_services><ttlms>1000</ttlms></save_services>`},
	{"private", http.MethodPost, `<save_services><service serviceKey="k3" name="ok"/><service serviceKey="k4"/></save_services>`},
	{"private", http.MethodPost, `<find_service/>`},
	{"private", http.MethodPost, `<find_service><name>%a%</name></find_service>`},
	{"private", http.MethodPost, `<find_service><tModel>Display</tModel><category keyName="room" keyValue="den"/></find_service>`},
	{"private", http.MethodPost, `<get_serviceDetail><serviceKey>uuid:lamp</serviceKey></get_serviceDetail>`},
	{"private", http.MethodPost, `<get_serviceDetail><serviceKey>uuid:none</serviceKey></get_serviceDetail>`},
	{"private", http.MethodPost, `<get_serviceDetail/>`},
	{"private", http.MethodPost, `<watch><since>0</since></watch>`},
	{"private", http.MethodPost, `<watch><since>2</since><epoch>2</epoch><timeoutms>0</timeoutms></watch>`},
	{"private", http.MethodPost, `<watch><since>1</since><epoch>1</epoch></watch>`},
	{"private", http.MethodPost, `<watch><since>99</since></watch>`},
	{"private", http.MethodPost, `<watch><since>x</since></watch>`},
	{"private", http.MethodPost, `<watch><epoch>-1</epoch></watch>`},
	{"private", http.MethodPost, `<watch><timeoutms>-5</timeoutms></watch>`},
	{"private", http.MethodPost, `<state_page><after></after><epoch>0</epoch></state_page>`},
	{"private", http.MethodPost, `<state_page><after>uuid:secret</after><epoch>1</epoch></state_page>`},
	{"private", http.MethodPost, `<state_page><epoch>e</epoch></state_page>`},
	{"private", http.MethodPost, `<repl_status/>`},
	{"private", http.MethodPost, `<repl_watch><since>0</since><epoch>2</epoch></repl_watch>`},
	{"private", http.MethodPost, `<repl_watch><since>3</since><epoch>1</epoch><timeoutms>1</timeoutms></repl_watch>`},
	{"private", http.MethodPost, `<repl_watch><since>0</since><epoch>9</epoch></repl_watch>`},
	{"private", http.MethodPost, `<repl_watch><since>z</since></repl_watch>`},
	{"private", http.MethodPost, `<repl_watch><timeoutms>q</timeoutms></repl_watch>`},
	{"private", http.MethodPost, `<delete_service/>`},
	{"private", http.MethodPost, `<delete_service><serviceKey></serviceKey></delete_service>`},
	{"peer", http.MethodGet, ""},
	{"peer", http.MethodPost, "<find_service/>"},
	{"peer", http.MethodPost, `<get_serviceDetail><serviceKey>uuid:secret</serviceKey></get_serviceDetail>`},
	{"peer", http.MethodPost, `<get_serviceDetail><serviceKey>uuid:lamp</serviceKey></get_serviceDetail>`},
	{"peer", http.MethodPost, `<watch><since>0</since></watch>`},
	{"peer", http.MethodPost, `<state_page><after></after><epoch>1</epoch></state_page>`},
	{"peer", http.MethodPost, `<save_service><service name="x"/></save_service>`},
	{"peer", http.MethodPost, `<save_services><service name="x"/></save_services>`},
	{"peer", http.MethodPost, `<delete_service><serviceKey>uuid:lamp</serviceKey></delete_service>`},
	{"peer", http.MethodPost, `<repl_status/>`},
	{"peer", http.MethodPost, `<repl_watch><since>0</since></repl_watch>`},
	{"peer", http.MethodPost, `<bogus/>`},
	{"replica", http.MethodPost, `<save_service><service serviceKey="r1" name="r"/></save_service>`},
	{"replica", http.MethodPost, `<save_services><service serviceKey="r1" name="r"/></save_services>`},
	{"replica", http.MethodPost, `<delete_service><serviceKey>r1</serviceKey></delete_service>`},
	{"replica", http.MethodPost, `<delete_service/>`},
	{"replica", http.MethodPost, `<find_service/>`},
	{"replica", http.MethodPost, `<repl_status/>`},
	{"private", http.MethodPost, `<delete_service><serviceKey>uuid:secret</serviceKey></delete_service>`},
	{"private", http.MethodPost, `<delete_service><serviceKey>uuid:lamp</serviceKey></delete_service>`},
	{"private", http.MethodPost, `<delete_service><serviceKey>uuid:gone</serviceKey></delete_service>`},
	{"private", http.MethodPost, `<watch><since>4</since></watch>`},
	{"peer", http.MethodPost, `<watch><since>4</since></watch>`},
	{"peer", http.MethodPost, `<watch><since>3</since></watch>`},
	{"private", http.MethodPost, `<repl_watch><since>4</since><epoch>2</epoch></repl_watch>`},
}

// goldenReplies runs the script and renders every reply.
func goldenReplies(t *testing.T) []byte {
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
	faces := goldenFaces(s, rep)
	var out bytes.Buffer
	for i, x := range goldenExchanges {
		req := httptest.NewRequest(x.method, "http://registry.test/uddi", strings.NewReader(x.body))
		rec := httptest.NewRecorder()
		faces[x.face].ServeHTTP(rec, req)
		fmt.Fprintf(&out, "== %02d %s %s %s\n%d %s\n%s\n\n", i, x.face, x.method, x.body,
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	return out.Bytes()
}

// TestXMLReplyGolden: the HTTP face answers the fixed script with the
// recorded bytes.
func TestXMLReplyGolden(t *testing.T) {
	path := filepath.Join("testdata", "xml_replies.golden")
	got := goldenReplies(t)
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
			t.Fatalf("XML replies differ from %s at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("XML replies differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
