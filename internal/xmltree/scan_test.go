// Differential tests for the pooled scanner: every document in the
// corpus must parse to exactly the tree the seed's encoding/xml-based
// parser produced, so swapping the parser cannot change any codec's
// observable behavior.
package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// referenceParse is the seed implementation, kept verbatim as the oracle.
func referenceParse(data []byte) (*Element, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmltree: document has no root element")
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return referenceElement(dec, start)
		}
	}
}

func referenceElement(dec *xml.Decoder, start xml.StartElement) (*Element, error) {
	el := &Element{Name: start.Name, Attrs: start.Attr}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			c, err := referenceElement(dec, t)
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, c)
		case xml.CharData:
			el.Text += string(t)
		case xml.EndElement:
			return el, nil
		}
	}
}

// normalize makes reflect.DeepEqual insensitive to nil-vs-empty slices.
func normalize(e *Element) {
	if len(e.Attrs) == 0 {
		e.Attrs = nil
	}
	if len(e.Children) == 0 {
		e.Children = nil
	}
	for _, c := range e.Children {
		normalize(c)
	}
}

var corpus = []string{
	// Plain trees.
	`<a/>`,
	`<a></a>`,
	`<a>text</a>`,
	`<a x="1" y="two"/>`,
	`<root version="2"><a id="1">alpha</a><a id="2">beta</a><b><c>deep &amp; nested</c></b></root>`,
	// Prolog, comments, PIs, DOCTYPE.
	xml.Header + `<doc><!-- comment -->text<!-- more --></doc>`,
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<doc a="b"/>`,
	`<!DOCTYPE doc><doc/>`,
	`<doc><?pi data?>x</doc>`,
	// Entities, named and numeric, in text and attribute values.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x42;&#x1F600;</a>`,
	`<a v="&lt;q&gt; &amp; &#34;r&#34;"/>`,
	`<a>tab&#x9;nl&#xA;cr&#xD;end</a>`,
	// Text interleaved with children accumulates, as encoding/xml does.
	`<a>one<b/>two<b/>three</a>`,
	`<a>  leading <b>inner</b> trailing  </a>`,
	// CDATA.
	`<a><![CDATA[raw <not> &parsed;]]></a>`,
	`<a>pre<![CDATA[mid]]>post</a>`,
	// Namespaces: default, prefixed, nested rebinding, xml prefix,
	// unbound prefix left verbatim, xmlns attrs preserved.
	`<r xmlns:x="urn:one" xmlns:y="urn:two"><x:item/><y:item/></r>`,
	`<r xmlns="urn:default"><item a="1"/></r>`,
	`<r xmlns="urn:a"><s xmlns="urn:b"><t/></s><u/></r>`,
	`<r xmlns:p="urn:a"><p:s p:q="v" plain="w"/></r>`,
	`<r xml:lang="en"/>`,
	`<p:r/>`,
	`<r><unbound:child/></r>`,
	// Attribute quoting and spacing variants.
	`<a x = "1"  y='2'/>`,
	`<a  x="1" ></a >`,
	// Whitespace-only and unicode text.
	"<a>\n  \t\n</a>",
	`<a>héllo wörld — 日本語</a>`,
	// Newline normalization.
	"<a>one\r\ntwo\rthree</a>",
	// A realistic SOAP envelope (the hot-path shape).
	xml.Header + `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
		` SOAP-ENV:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/">` +
		`<SOAP-ENV:Body><m:SetLevel xmlns:m="urn:homeconnect:x10:lamp-1">` +
		`<level xsi:type="xsd:long">42</level><fade xsi:type="xsd:boolean">true</fade>` +
		`</m:SetLevel></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
}

func TestScannerMatchesEncodingXML(t *testing.T) {
	for _, doc := range corpus {
		want, wantErr := referenceParse([]byte(doc))
		got, gotErr := Parse([]byte(doc))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: error mismatch: reference %v, scanner %v", doc, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		normalize(want)
		normalize(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q:\nreference %+v\nscanner   %+v", doc, dump(want), dump(got))
		}
	}
}

func dump(e *Element) string {
	var b strings.Builder
	var walk func(e *Element, depth int)
	walk = func(e *Element, depth int) {
		fmt.Fprintf(&b, "%s{%+v attrs=%v text=%q}\n", strings.Repeat("  ", depth), e.Name, e.Attrs, e.Text)
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(e, 0)
	return b.String()
}

func TestScannerRejects(t *testing.T) {
	bad := []string{
		"", "   ", "junk only",
		"<unclosed>", "<a></b>", "<a", "<a x>", "<a x=>", "<a x=1>",
		"<a>&unknown;</a>", "<a>&#xZZ;</a>", "<a>& bare</a>", "<a>&#2;</a>",
		`<a x="unterminated>`, "<a><!-- unterminated</a>", "<a><![CDATA[open</a>",
		"<?pi never ends", "<!DOCTYPE unterminated",
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%q): want error", doc)
		}
	}
}

// TestQuickWriterScannerRoundTrip drives random strings through the
// Writer and back through the scanner: whatever the framework can encode,
// the scanner must parse to the same text and attribute values
// encoding/xml would have produced.
func TestQuickWriterScannerRoundTrip(t *testing.T) {
	fn := func(text, attr string) bool {
		w := NewWriter()
		w.Open("doc", "v", attr)
		w.Leaf("t", text)
		data := w.Bytes()
		want, err1 := referenceParse(data)
		got, err2 := Parse(data)
		if err1 != nil || err2 != nil {
			return false
		}
		normalize(want)
		normalize(got)
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParsePooledReuse exercises the scanner pool across documents of
// different shapes to catch scratch-state bleed between parses.
func TestParsePooledReuse(t *testing.T) {
	for i := 0; i < 50; i++ {
		for _, doc := range corpus {
			if _, err := Parse([]byte(doc)); err != nil {
				t.Fatalf("iteration %d: %q: %v", i, doc, err)
			}
		}
	}
}

// FuzzScannerMatchesReference: whatever document the seed parser
// (encoding/xml) accepts, the scanner parses to the same tree. Where the
// reference rejects a document the scanner may still accept it — its
// divergences are leniencies only.
func FuzzScannerMatchesReference(f *testing.F) {
	for _, doc := range corpus {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := referenceParse(data)
		if err != nil {
			return
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("%q: reference accepts, scanner: %v", data, err)
		}
		normalize(want)
		normalize(got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%q:\nreference %s\nscanner   %s", data, dump(want), dump(got))
		}
	})
}
