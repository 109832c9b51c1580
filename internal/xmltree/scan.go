// Single-pass document scanner. The seed parsed through encoding/xml,
// which costs one allocation per token (names, attribute slices, CharData
// copies) and cannot be pooled — SOAP envelopes on the inter-gateway hot
// path paid for a fresh decoder, a full token stream and quadratic
// character-data concatenation on every call. This scanner makes one pass
// over the document with pooled scratch state: element names and attribute
// values are zero-copy slices of the input, character data accumulates in
// a reusable buffer, and only the Elements themselves are allocated.
//
// The scanner covers the XML subset the framework's codecs emit and the
// constructs encoding/xml accepted in hand-written protocol documents:
// prolog and processing instructions, comments, directives such as
// DOCTYPE (in the prolog and in content), CDATA sections, named and
// numeric character entities, CR/CRLF newline normalization, and
// namespace prefix resolution with scoped xmlns bindings (matching
// encoding/xml's conventions: the reserved "xml" prefix, a name with an
// empty prefix or local part left unprefixed, unresolved prefixes left in
// Space verbatim, xmlns attributes kept in Attrs). Divergences are
// leniencies only — documents encoding/xml rejects that the scanner
// accepts, such as invalid UTF-8, '<' inside attribute values, "--"
// inside comments or names encoding/xml does not allow; every document
// encoding/xml accepts parses to the tree it produced, which
// FuzzScannerMatchesReference checks.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"
)

// xmlNamespace is the URI the reserved "xml" prefix is always bound to.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// parser scans one document. Instances are pooled: the text, attribute
// and namespace scratch survive between Parse calls, so steady-state
// parsing allocates only the returned tree.
type parser struct {
	src  string // the document, converted once; names and values slice it
	pos  int
	buf  []byte    // scratch for text that needs unescaping or joining
	atts []rawAttr // scratch for the current start tag's attributes
	ns   []binding // in-scope xmlns bindings, innermost last
}

// rawAttr is one attribute as written, name still prefixed.
type rawAttr struct {
	name string
	val  string
}

// binding is one in-scope xmlns declaration.
type binding struct {
	prefix string
	uri    string
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// scratchRetainLimit bounds the pooled text buffer: a one-off giant
// document must not pin its scratch for the life of the process.
const scratchRetainLimit = 64 << 10

// parseDocument runs one pooled parse over data.
func parseDocument(data []byte) (*Element, error) {
	p := parserPool.Get().(*parser)
	p.src = string(data)
	p.pos = 0
	p.buf = p.buf[:0]
	p.atts = p.atts[:0]
	p.ns = p.ns[:0]
	root, err := p.document()
	// Drop every reference into the document so the pool doesn't pin it:
	// the attr and binding scratch hold string headers slicing p.src in
	// their capacity regions.
	p.src = ""
	clear(p.atts[:cap(p.atts)])
	clear(p.ns[:cap(p.ns)])
	if cap(p.buf) <= scratchRetainLimit {
		parserPool.Put(p)
	}
	return root, err
}

// document skips the prolog and miscellaneous items and parses the root
// element.
func (p *parser) document() (*Element, error) {
	for {
		i := strings.IndexByte(p.src[p.pos:], '<')
		if i < 0 {
			return nil, fmt.Errorf("xmltree: document has no root element")
		}
		p.pos += i + 1
		switch {
		case p.hasPrefix("?"):
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		case p.hasPrefix("!--"):
			if err := p.skipComment(); err != nil {
				return nil, err
			}
		case p.hasPrefix("!"):
			if err := p.skipDirective(); err != nil {
				return nil, err
			}
		default:
			return p.element()
		}
	}
}

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

// skipPI consumes a processing instruction; pos is just past "<".
func (p *parser) skipPI() error {
	i := strings.Index(p.src[p.pos:], "?>")
	if i < 0 {
		return fmt.Errorf("xmltree: unterminated processing instruction")
	}
	p.pos += i + 2
	return nil
}

// skipComment consumes a comment; pos is just past "<".
func (p *parser) skipComment() error {
	i := strings.Index(p.src[p.pos+3:], "-->")
	if i < 0 {
		return fmt.Errorf("xmltree: unterminated comment")
	}
	p.pos += 3 + i + 3
	return nil
}

// skipDirective consumes a <!...> directive such as DOCTYPE as
// encoding/xml reads one: the byte after "<!" is taken verbatim, then
// angle brackets nest, except inside quotes and embedded comments, so an
// internal subset doesn't end it early. pos is just past "<".
func (p *parser) skipDirective() error {
	depth := 0
	var quote byte
	for i := p.pos + 2; i < len(p.src); i++ {
		switch c := p.src[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			if depth == 0 {
				p.pos = i + 1
				return nil
			}
			depth--
		case c == '<':
			if !strings.HasPrefix(p.src[i+1:], "!--") {
				depth++
				continue
			}
			j := strings.Index(p.src[i+4:], "-->")
			if j < 0 {
				return fmt.Errorf("xmltree: unterminated comment")
			}
			i += 4 + j + 2
		}
	}
	return fmt.Errorf("xmltree: unterminated directive")
}

func isNameEnd(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '=', '/', '>', '<', '"', '\'':
		return true
	}
	return false
}

// name scans an element or attribute name as written (prefix included).
func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && !isNameEnd(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("xmltree: expected a name at offset %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// element parses one element; pos is at the first byte of its name.
func (p *parser) element() (*Element, error) {
	nsMark := len(p.ns)
	rawName, err := p.name()
	if err != nil {
		return nil, err
	}
	p.atts = p.atts[:0]
	selfClose := false
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xmltree: unexpected EOF in <%s> tag", rawName)
		}
		c := p.src[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			if !p.hasPrefix("/>") {
				return nil, fmt.Errorf("xmltree: malformed tag <%s>", rawName)
			}
			p.pos += 2
			selfClose = true
			break
		}
		aname, err := p.name()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, fmt.Errorf("xmltree: attribute %s missing value in <%s>", aname, rawName)
		}
		p.pos++
		p.skipSpace()
		val, err := p.attrValue()
		if err != nil {
			return nil, err
		}
		if prefix, local := splitName(aname); prefix == "xmlns" {
			p.ns = append(p.ns, binding{prefix: local, uri: val})
		} else if aname == "xmlns" {
			p.ns = append(p.ns, binding{prefix: "", uri: val})
		}
		p.atts = append(p.atts, rawAttr{name: aname, val: val})
	}

	el := &Element{Name: p.resolve(rawName, true)}
	if n := len(p.atts); n > 0 {
		attrs := make([]xml.Attr, n)
		for i, a := range p.atts {
			attrs[i] = xml.Attr{Name: p.resolve(a.name, false), Value: a.val}
		}
		el.Attrs = attrs
	}
	if !selfClose {
		if err := p.content(el, rawName); err != nil {
			return nil, err
		}
	}
	p.ns = p.ns[:nsMark]
	return el, nil
}

// attrValue scans a quoted attribute value, unescaping entities.
func (p *parser) attrValue() (string, error) {
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("xmltree: unexpected EOF in attribute value")
	}
	q := p.src[p.pos]
	if q != '"' && q != '\'' {
		return "", fmt.Errorf("xmltree: attribute value must be quoted")
	}
	p.pos++
	i := strings.IndexByte(p.src[p.pos:], q)
	if i < 0 {
		return "", fmt.Errorf("xmltree: unterminated attribute value")
	}
	raw := p.src[p.pos : p.pos+i]
	p.pos += i + 1
	if !strings.ContainsAny(raw, "&\r") {
		return raw, nil
	}
	mark := len(p.buf)
	if err := p.unescapeInto(raw); err != nil {
		return "", err
	}
	val := string(p.buf[mark:])
	p.buf = p.buf[:mark]
	return val, nil
}

// content parses an element's children and character data up to its end
// tag. The first contiguous text run stays a zero-copy slice of the
// source; a second run, an entity or CDATA spills accumulation into the
// shared scratch buffer (mark/truncate makes it safe under recursion).
func (p *parser) content(el *Element, rawName string) error {
	textMark := len(p.buf)
	direct := ""      // sole text run so far, when it needed no copy
	buffered := false // text has spilled into p.buf
	spill := func() {
		if direct != "" {
			p.buf = append(p.buf, direct...)
			direct = ""
		}
		buffered = true
	}
	addRun := func(run string) error {
		if run == "" {
			return nil
		}
		if strings.ContainsAny(run, "&\r") {
			spill()
			return p.unescapeInto(run)
		}
		if !buffered && direct == "" {
			direct = run
			return nil
		}
		spill()
		p.buf = append(p.buf, run...)
		return nil
	}
	for {
		start := p.pos
		i := strings.IndexByte(p.src[p.pos:], '<')
		if i < 0 {
			return fmt.Errorf("xmltree: unexpected EOF inside <%s>", rawName)
		}
		run := p.src[start : start+i]
		p.pos = start + i + 1
		if err := addRun(run); err != nil {
			return err
		}
		switch {
		case p.hasPrefix("/"):
			p.pos++
			end, err := p.name()
			if err != nil {
				return err
			}
			if end != rawName {
				return fmt.Errorf("xmltree: element <%s> closed by </%s>", rawName, end)
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return fmt.Errorf("xmltree: malformed end tag </%s>", end)
			}
			p.pos++
			if buffered {
				el.Text = string(p.buf[textMark:])
				p.buf = p.buf[:textMark]
			} else {
				el.Text = direct
			}
			return nil
		case p.hasPrefix("!--"):
			if err := p.skipComment(); err != nil {
				return err
			}
		case p.hasPrefix("![CDATA["):
			p.pos += len("![CDATA[")
			j := strings.Index(p.src[p.pos:], "]]>")
			if j < 0 {
				return fmt.Errorf("xmltree: unterminated CDATA section")
			}
			cdata := p.src[p.pos : p.pos+j]
			p.pos += j + 3
			// CDATA is literal: no entities, but newlines still normalize.
			switch {
			case cdata == "":
			case strings.ContainsRune(cdata, '\r'):
				spill()
				appendNormalized(&p.buf, cdata)
			case !buffered && direct == "":
				direct = cdata
			default:
				spill()
				p.buf = append(p.buf, cdata...)
			}
		case p.hasPrefix("!"):
			if err := p.skipDirective(); err != nil {
				return err
			}
		case p.hasPrefix("?"):
			if err := p.skipPI(); err != nil {
				return err
			}
		default:
			child, err := p.element()
			if err != nil {
				return err
			}
			el.Children = append(el.Children, child)
		}
	}
}

// appendNormalized appends s with XML newline normalization: CRLF and
// bare CR both become LF.
func appendNormalized(buf *[]byte, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\r' {
			if i+1 < len(s) && s[i+1] == '\n' {
				continue // the LF will follow
			}
			c = '\n'
		}
		*buf = append(*buf, c)
	}
}

// unescapeInto appends s to the scratch buffer, resolving character
// entities and normalizing newlines.
func (p *parser) unescapeInto(s string) error {
	for i := 0; i < len(s); {
		c := s[i]
		switch c {
		case '&':
			j := strings.IndexByte(s[i:], ';')
			if j < 0 || j > 32 {
				return fmt.Errorf("xmltree: invalid character entity")
			}
			ent := s[i+1 : i+j]
			i += j + 1
			switch ent {
			case "lt":
				p.buf = append(p.buf, '<')
			case "gt":
				p.buf = append(p.buf, '>')
			case "amp":
				p.buf = append(p.buf, '&')
			case "apos":
				p.buf = append(p.buf, '\'')
			case "quot":
				p.buf = append(p.buf, '"')
			default:
				r, ok := parseCharRef(ent)
				if !ok {
					return fmt.Errorf("xmltree: invalid character entity &%s;", ent)
				}
				p.buf = utf8.AppendRune(p.buf, r)
			}
		case '\r':
			if i+1 < len(s) && s[i+1] == '\n' {
				i++
				continue
			}
			p.buf = append(p.buf, '\n')
			i++
		default:
			p.buf = append(p.buf, c)
			i++
		}
	}
	return nil
}

// parseCharRef parses the body of a numeric character reference
// ("#38" or "#x26").
func parseCharRef(ent string) (rune, bool) {
	if len(ent) < 2 || ent[0] != '#' {
		return 0, false
	}
	base := 10
	digits := ent[1:]
	if digits[0] == 'x' || digits[0] == 'X' {
		base = 16
		digits = digits[1:]
		if digits == "" {
			return 0, false
		}
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		var d int64
		c := digits[i]
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		n = n*int64(base) + d
		if n > utf8.MaxRune {
			return 0, false
		}
	}
	if !IsChar(rune(n)) {
		return 0, false
	}
	return rune(n), true
}

// lookup resolves a namespace prefix against the in-scope bindings.
func (p *parser) lookup(prefix string) (string, bool) {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri, true
		}
	}
	return "", false
}

// splitName splits a raw name at its colon as encoding/xml does: a name
// whose prefix or local part would be empty is unprefixed.
func splitName(raw string) (prefix, local string) {
	prefix, local, ok := strings.Cut(raw, ":")
	if !ok || prefix == "" || local == "" {
		return "", raw
	}
	return prefix, local
}

// resolve maps a raw element (elem) or attribute name to its xml.Name
// with encoding/xml's conventions: the default namespace applies to
// unprefixed elements but not attributes, the "xml" prefix is reserved,
// xmlns declarations keep their prefix, and an unbound prefix is left in
// Space as-is.
func (p *parser) resolve(raw string, elem bool) xml.Name {
	prefix, local := splitName(raw)
	switch {
	case prefix == "xmlns":
		return xml.Name{Space: prefix, Local: local}
	case prefix == "" && (!elem || local == "xmlns"):
		return xml.Name{Local: local}
	case prefix == "xml":
		return xml.Name{Space: xmlNamespace, Local: local}
	}
	if uri, ok := p.lookup(prefix); ok {
		return xml.Name{Space: uri, Local: local}
	}
	return xml.Name{Space: prefix, Local: local}
}

// IsChar reports whether r is representable in XML 1.0 character data:
// control characters below 0x20 (except tab, LF, CR) and the
// non-characters cannot appear even escaped.
func IsChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}
