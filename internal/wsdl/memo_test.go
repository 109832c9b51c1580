package wsdl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"homeconnect/internal/service"
)

// sameParse fails t unless the memo's parse of text equals an uncached
// Parse: the same interface, location and error.
func sameParse(t *testing.T, m *memo, text string) {
	t.Helper()
	want, wantErr := Parse([]byte(text))
	got, gotErr := m.parse(text)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("memo error %v, Parse error %v\ndocument: %q", gotErr, wantErr, text)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memo parsed %+v, Parse %+v\ndocument: %q", got, want, text)
	}
}

// withLocation replaces the value of text's last location attribute.
func withLocation(text, loc string) string {
	const attr = `location="`
	i := strings.LastIndex(text, attr)
	if i < 0 {
		return text
	}
	start := i + len(attr)
	end := strings.IndexByte(text[start:], '"')
	if end < 0 {
		return text
	}
	return text[:start] + loc + text[start+end:]
}

func TestMemoSharesOneParsePerInterface(t *testing.T) {
	var m memo
	// Every service of an interface publishes the same address-less
	// document, so however many parse it, the memo holds one entry.
	for _, it := range []service.Interface{vcrInterface(), vcrInterface(), switchInterface()} {
		doc, err := Generate(it, "")
		if err != nil {
			t.Fatal(err)
		}
		sameParse(t, &m, string(doc))
	}
	if n := len(m.docs); n != 2 {
		t.Errorf("memo holds %d documents, want 2", n)
	}
	// A document that still carries its address is memoized whole: a hit
	// returns that document's own location.
	a, _ := Generate(vcrInterface(), "http://10.0.0.1:80/a")
	b, _ := Generate(vcrInterface(), "http://10.0.0.2:80/b")
	for i := 0; i < 2; i++ {
		da, _ := m.parse(string(a))
		db, _ := m.parse(string(b))
		if da.Location != "http://10.0.0.1:80/a" || db.Location != "http://10.0.0.2:80/b" {
			t.Errorf("parses returned locations %q and %q", da.Location, db.Location)
		}
	}
	if n := len(m.docs); n != 4 {
		t.Errorf("memo holds %d documents, want 4", n)
	}
	// A failed parse is not memoized.
	sameParse(t, &m, "<definitions")
	if n := len(m.docs); n != 4 {
		t.Errorf("memo holds %d documents after a failed parse, want 4", n)
	}
}

// TestMemoDoesNotAliasLookalikes: documents that differ only inside
// text resembling a location attribute, or only in their address, must
// not share an entry.
func TestMemoDoesNotAliasLookalikes(t *testing.T) {
	var m memo
	doc, err := Generate(vcrInterface(), "http://10.0.0.1:80/services/havi:vcr-1")
	if err != nil {
		t.Fatal(err)
	}
	plain := string(doc)
	// A trailing comment whose text resembles a service address: the last
	// location attribute in the text is now inside the comment.
	comment := `<!-- <service><port><soap:address location="http://decoy/"/></port></service> -->`
	lookalike := strings.Replace(plain, "</definitions>", comment+"</definitions>", 1)
	for _, loc := range []string{"http://decoy/", "http://elsewhere/", "http://10.0.0.1:80/services/havi:vcr-1"} {
		sameParse(t, &m, withLocation(lookalike, loc))
	}
	// Documentation that mentions <service (escaped, as Generate writes
	// it) changes the interface, so it must not share the plain entry.
	documented := vcrInterface()
	documented.Doc = `see <service name="VCR"> and location="http://x/"`
	for _, it := range []service.Interface{vcrInterface(), documented} {
		for _, loc := range []string{"http://a/1", "http://b/2"} {
			d, err := Generate(it, loc)
			if err != nil {
				t.Fatal(err)
			}
			sameParse(t, &m, string(d))
		}
	}
	// An escaped location parses exactly as Parse does.
	sameParse(t, &m, withLocation(plain, "http://h/s?a=1&amp;b=2"))
}

// FuzzWSDLParse is the memo's differential check: for arbitrary bytes,
// for the same bytes with their last location value swapped, and for
// generated documents of an arbitrary interface at arbitrary locations,
// parsing through one memo must equal an uncached Parse — same
// interface, same location, same error — whether the memo hits or
// misses.
func FuzzWSDLParse(f *testing.F) {
	vcr, _ := Generate(vcrInterface(), "http://10.0.0.1:80/services/havi:vcr-1")
	f.Add(vcr, "VCR", "tape deck", "http://a/1", "http://b/2")
	f.Add([]byte(`<definitions name="X"><portType name="X"/><service><port><address location="u"/></port></service></definitions>`),
		"Lamp", `<service location="`, "", "http://c/3")
	f.Fuzz(func(t *testing.T, data []byte, name, doc, loc1, loc2 string) {
		var m memo
		text := string(data)
		for _, d := range []string{text, withLocation(text, loc1), withLocation(text, loc2), text} {
			sameParse(t, &m, d)
		}
		it := service.Interface{Name: name, Doc: doc, Operations: []service.Operation{
			{Name: "Get", Output: service.KindString, Doc: doc},
			{Name: "Set", Inputs: []service.Parameter{{Name: "v", Type: service.KindInt}}, Output: service.KindVoid},
		}}
		for _, loc := range []string{loc1, loc2, loc1} {
			g, err := Generate(it, loc)
			if err != nil {
				return
			}
			sameParse(t, &m, string(g))
		}
	})
}

// sameRender fails t unless m's Generate of (it, loc) equals an
// uncached render, one through an empty memo: the same bytes or the
// same error.
func sameRender(t *testing.T, m *renderMemo, it service.Interface, loc string) {
	t.Helper()
	want, wantErr := new(renderMemo).generate(it, loc)
	got, gotErr := m.generate(it, loc)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("memo error %v, uncached error %v\ninterface: %+v", gotErr, wantErr, it)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("memo rendered\n%q\nuncached\n%q\ninterface: %+v at %q", got, want, it, loc)
	}
}

func TestRenderMemoOneEntryPerInterface(t *testing.T) {
	var m renderMemo
	for _, loc := range []string{"http://10.0.0.1/a", "", "http://10.0.0.2/b?x=1&y=2"} {
		sameRender(t, &m, vcrInterface(), loc)
		sameRender(t, &m, switchInterface(), loc)
	}
	if n := len(m.docs); n != 2 {
		t.Errorf("memo holds %d renders, want 2", n)
	}
	// A failed render is not memoized.
	bad := switchInterface()
	bad.Operations[0].Output = service.KindInvalid
	sameRender(t, &m, bad, "http://x/")
	if n := len(m.docs); n != 2 {
		t.Errorf("memo holds %d renders after a failed one, want 2", n)
	}
}

// FuzzWSDLGenerate is the render memo's differential check: for two
// interfaces built from arbitrary names, docs and kinds (the second
// moves text between fields of the first, so a key that did not
// delimit its fields would collide), rendering through one memo at
// arbitrary locations must equal an uncached render, whether the memo
// hits or misses.
func FuzzWSDLGenerate(f *testing.F) {
	f.Add("Switch", "", "Set", "", "on", int64(service.KindBool), int64(service.KindVoid), "http://127.0.0.1:9/services/d-1", "")
	f.Add(`a<b&"c'`, "d\xffoc\n", "Op", "x", "p", int64(service.KindInt), int64(service.KindString), `http://h/?a=1&b="2"`, "http://\x80/")
	f.Add("ab", "c", "Get", "", "v", int64(service.KindVoid), int64(99), "u", "v")
	f.Fuzz(func(t *testing.T, name, doc, opName, opDoc, param string, inKind, outKind int64, loc1, loc2 string) {
		it := service.Interface{Name: name, Doc: doc, Operations: []service.Operation{
			{Name: opName, Doc: opDoc, Inputs: []service.Parameter{{Name: param, Type: service.Kind(inKind)}}, Output: service.Kind(outKind)},
			{Name: opName + "2", Output: service.KindVoid},
		}}
		moved := it
		moved.Name, moved.Doc = name+doc, ""
		moved.Operations = []service.Operation{
			{Name: opName + opDoc, Inputs: []service.Parameter{{Name: param, Type: service.Kind(inKind)}}, Output: service.Kind(outKind)},
			{Name: opName + "2", Output: service.KindVoid},
		}
		var m renderMemo
		for _, loc := range []string{loc1, loc2, loc1} {
			sameRender(t, &m, it, loc)
			sameRender(t, &m, moved, loc)
		}
	})
}
