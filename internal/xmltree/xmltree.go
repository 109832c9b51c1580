// Package xmltree parses XML documents into a lightweight element tree.
// The framework deals in small protocol documents — the SOAP envelopes,
// WSDL definitions and UDDI messages of the paper's prototype (§4.1),
// plus UPnP device descriptions (§5) — whose schemas are too dynamic for
// struct tags; a generic tree keeps each codec simple.
package xmltree

import (
	"bytes"
	"encoding/xml"
	"unicode/utf8"
)

// Element is one parsed XML element: its name, attributes, accumulated
// character data, and child elements in document order.
type Element struct {
	Name     xml.Name
	Attrs    []xml.Attr
	Text     string
	Children []*Element
}

// Parse reads a document and returns its root element. Parsing is a
// single pass over pooled scanner state (see scan.go): steady-state
// callers allocate only the tree itself.
func Parse(data []byte) (*Element, error) {
	return parseDocument(data)
}

// Attr returns the value of the first attribute with the given local name,
// or "" if absent.
func (e *Element) Attr(local string) string {
	for _, a := range e.Attrs {
		if a.Name.Local == local {
			return a.Value
		}
	}
	return ""
}

// Child returns the first child element with the given local name, or nil.
func (e *Element) Child(local string) *Element {
	for _, c := range e.Children {
		if c.Name.Local == local {
			return c
		}
	}
	return nil
}

// ChildNS returns the first child with the given namespace and local name,
// or nil.
func (e *Element) ChildNS(space, local string) *Element {
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			return c
		}
	}
	return nil
}

// All returns every child element with the given local name.
func (e *Element) All(local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// Find walks the tree by successive local names and returns the first
// match, or nil if any step is missing.
func (e *Element) Find(path ...string) *Element {
	cur := e
	for _, p := range path {
		cur = cur.Child(p)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// ChildText returns the trimmed character data of the named child, or "".
func (e *Element) ChildText(local string) string {
	if c := e.Child(local); c != nil {
		return trimSpace(c.Text)
	}
	return ""
}

func trimSpace(s string) string {
	start := 0
	for start < len(s) && isSpace(s[start]) {
		start++
	}
	end := len(s)
	for end > start && isSpace(s[end-1]) {
		end--
	}
	return s[start:end]
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// Escape writes s to buf with XML escaping, matching xml.EscapeText's
// output byte for byte but without its []byte conversion: every encoder
// in the framework escapes strings, and the copy was pure overhead.
// Characters XML cannot represent become U+FFFD, as in xml.EscapeText.
func Escape(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if (r == utf8.RuneError && width == 1) || !IsChar(r) {
				esc = "�"
				break
			}
			i += width
			continue
		}
		buf.WriteString(s[last:i])
		buf.WriteString(esc)
		i += width
		last = i
	}
	buf.WriteString(s[last:])
}

// Writer incrementally builds an XML document. It tracks open elements so
// codecs can't emit mismatched tags, and escapes all character data.
type Writer struct {
	buf   bytes.Buffer
	stack []string
}

// NewWriter returns a Writer primed with the standard XML header.
func NewWriter() *Writer {
	w := &Writer{}
	w.buf.WriteString(xml.Header)
	return w
}

// Open starts an element; attrs alternate name, value.
func (w *Writer) Open(name string, attrs ...string) *Writer {
	w.buf.WriteByte('<')
	w.buf.WriteString(name)
	for i := 0; i+1 < len(attrs); i += 2 {
		w.buf.WriteByte(' ')
		w.buf.WriteString(attrs[i])
		w.buf.WriteString(`="`)
		Escape(&w.buf, attrs[i+1])
		w.buf.WriteByte('"')
	}
	w.buf.WriteByte('>')
	w.stack = append(w.stack, name)
	return w
}

// Close ends the most recently opened element.
func (w *Writer) Close() *Writer {
	if len(w.stack) == 0 {
		return w
	}
	name := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.buf.WriteString("</")
	w.buf.WriteString(name)
	w.buf.WriteByte('>')
	return w
}

// Text appends escaped character data.
func (w *Writer) Text(s string) *Writer {
	Escape(&w.buf, s)
	return w
}

// Leaf writes <name>text</name> in one step; attrs alternate name, value.
func (w *Writer) Leaf(name, text string, attrs ...string) *Writer {
	w.Open(name, attrs...)
	w.Text(text)
	return w.Close()
}

// SelfClose writes an empty element <name ...attrs/>.
func (w *Writer) SelfClose(name string, attrs ...string) *Writer {
	w.buf.WriteByte('<')
	w.buf.WriteString(name)
	for i := 0; i+1 < len(attrs); i += 2 {
		w.buf.WriteByte(' ')
		w.buf.WriteString(attrs[i])
		w.buf.WriteString(`="`)
		Escape(&w.buf, attrs[i+1])
		w.buf.WriteByte('"')
	}
	w.buf.WriteString("/>")
	return w
}

// Len reports the length of the document written so far.
func (w *Writer) Len() int { return w.buf.Len() }

// Grow reserves room for n more bytes, so a document of known bound is
// built in one buffer.
func (w *Writer) Grow(n int) { w.buf.Grow(n) }

// Raw appends b verbatim: a fragment another Writer already built (and
// escaped), such as the children of an element whose attributes depend
// on how many of them fit. A zero Writer builds such a fragment: it
// writes no XML header.
func (w *Writer) Raw(b []byte) *Writer {
	w.buf.Write(b)
	return w
}

// Bytes closes any open elements and returns the document.
func (w *Writer) Bytes() []byte {
	for len(w.stack) > 0 {
		w.Close()
	}
	return w.buf.Bytes()
}
