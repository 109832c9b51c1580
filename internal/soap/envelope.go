// Package soap implements the subset of SOAP 1.1 used as the Virtual
// Service Gateway protocol in the paper's prototype (§4.1): RPC-style
// envelopes with xsi-typed parameters, faults, and an HTTP binding.
//
// The paper chose SOAP because it is "simple ... easy for implementation
// and light-weight for network" and rides on ubiquitous HTTP/XML
// infrastructure. This package reproduces exactly that: hand-rolled
// encoding against the SOAP 1.1 envelope/encoding namespaces with no
// dependencies beyond the standard library.
//
// The codec is the federation's hottest path — every inter-gateway call
// crosses it twice in each direction — so it is built for allocation
// economy: encoders write into pooled buffers behind precomputed envelope
// prefix/suffix constants, and decoding rides internal/xmltree's pooled
// single-pass scanner instead of a private encoding/xml element parser.
package soap

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"homeconnect/internal/service"
	"homeconnect/internal/xmltree"
)

// SOAP 1.1 namespace constants.
const (
	EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"
	EncodingNS = "http://schemas.xmlsoap.org/soap/encoding/"
	XSDNS      = "http://www.w3.org/2001/XMLSchema"
	XSINS      = "http://www.w3.org/2001/XMLSchema-instance"
)

// Arg is one named, typed RPC parameter.
type Arg struct {
	Name  string
	Value service.Value
}

// Call is an RPC-style SOAP request: an operation element in the service's
// namespace whose children are the parameters.
type Call struct {
	// Namespace qualifies the operation element; the framework uses
	// "urn:homeconnect:<service-id>".
	Namespace string
	// Operation is the element (method) name.
	Operation string
	// Args are the positional parameters in declaration order.
	Args []Arg
}

// Fault is a SOAP 1.1 fault. It implements error.
type Fault struct {
	// Code is the faultcode QName local part: "Client" or "Server".
	Code string
	// String is the human-readable faultstring.
	String string
	// Actor optionally identifies the failing node.
	Actor string
	// Detail carries the framework's machine-readable error code (see
	// service.RemoteCode) in a <code> element.
	Detail string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// RemoteError converts the fault to the *service.RemoteError a caller
// surfaces: the machine-readable Detail code when present, else the
// faultcode side. This is the single fault→error mapping shared by the
// HTTP client and the gateway's loopback path, so the two paths cannot
// diverge.
func (f *Fault) RemoteError() *service.RemoteError {
	code := f.Detail
	if code == "" {
		code = f.Code
	}
	return &service.RemoteError{Code: code, Msg: f.String}
}

// xsdType maps a value kind to its xsi:type attribute value (with the xsd:
// prefix bound in the envelope).
func xsdType(k service.Kind) (string, error) {
	switch k {
	case service.KindString:
		return "xsd:string", nil
	case service.KindInt:
		return "xsd:long", nil
	case service.KindFloat:
		return "xsd:double", nil
	case service.KindBool:
		return "xsd:boolean", nil
	case service.KindBytes:
		return "xsd:base64Binary", nil
	default:
		return "", fmt.Errorf("soap: no xsd type for kind %v: %w", k, service.ErrBadKind)
	}
}

// kindFromXSD inverts xsdType, accepting any prefix before the colon.
func kindFromXSD(t string) (service.Kind, error) {
	if i := strings.IndexByte(t, ':'); i >= 0 {
		t = t[i+1:]
	}
	switch t {
	case "string":
		return service.KindString, nil
	case "long", "int", "short", "integer":
		return service.KindInt, nil
	case "double", "float", "decimal":
		return service.KindFloat, nil
	case "boolean":
		return service.KindBool, nil
	case "base64Binary":
		return service.KindBytes, nil
	default:
		return service.KindInvalid, fmt.Errorf("soap: unknown xsd type %q: %w", t, service.ErrBadKind)
	}
}

func xmlSafe(s string) bool {
	// Invalid UTF-8 ranges as U+FFFD, which xmltree.IsChar accepts but the
	// encoder cannot round-trip — wrap those strings too.
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if !xmltree.IsChar(r) {
			return false
		}
	}
	return true
}

// encodeValueText renders a value's character data for the wire. Bytes use
// base64 per xsd:base64Binary; scalars use service text form. Strings that
// XML cannot carry are base64-wrapped, flagged by the enc="base64"
// parameter attribute (both ends of the gateway protocol understand it).
func encodeValueText(v service.Value) (text string, base64Wrapped bool) {
	switch v.Kind() {
	case service.KindBytes:
		return base64.StdEncoding.EncodeToString(v.Bytes()), false
	case service.KindString:
		if s := v.Str(); !xmlSafe(s) {
			return base64.StdEncoding.EncodeToString([]byte(s)), true
		}
	}
	return v.Text(), false
}

// decodeValueText parses wire character data into a value of kind k.
// base64Wrapped reports an enc="base64" string parameter.
func decodeValueText(k service.Kind, text string, base64Wrapped bool) (service.Value, error) {
	if k == service.KindBytes || base64Wrapped {
		raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(text))
		if err != nil {
			return service.Value{}, fmt.Errorf("soap: base64: %w", err)
		}
		if base64Wrapped {
			return service.StringValue(string(raw)), nil
		}
		return service.BytesValue(raw), nil
	}
	if k == service.KindString {
		// The parsed text is a zero-copy slice of the whole envelope
		// (see xmltree's scanner); clone it so a caller holding the
		// string does not pin an envelope-sized allocation.
		text = strings.Clone(text)
	}
	return service.ParseText(k, text)
}

// The envelope shell never varies, so it is two string constants: one
// WriteString each instead of a token stream.
const (
	envelopeOpen = xml.Header +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + EnvelopeNS + `"` +
		` xmlns:xsd="` + XSDNS + `"` +
		` xmlns:xsi="` + XSINS + `"` +
		` SOAP-ENV:encodingStyle="` + EncodingNS + `">` +
		`<SOAP-ENV:Body>`
	envelopeClose = `</SOAP-ENV:Body></SOAP-ENV:Envelope>`
)

// encBufPool recycles encoder buffers: a steady-state encode allocates
// only the returned envelope copy.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// openEnvelope returns a pooled buffer primed with the envelope prefix.
func openEnvelope() *bytes.Buffer {
	b := encBufPool.Get().(*bytes.Buffer)
	b.Reset()
	b.WriteString(envelopeOpen)
	return b
}

// encBufRetainLimit bounds pooled encoder buffers: one envelope with a
// huge binary payload must not pin its buffer for the life of the
// process while steady-state envelopes run a few hundred bytes.
const encBufRetainLimit = 64 << 10

// recycleBuf returns a buffer to the pool unless it has grown past the
// retain limit.
func recycleBuf(b *bytes.Buffer) {
	if b.Cap() <= encBufRetainLimit {
		encBufPool.Put(b)
	}
}

// closeEnvelope finishes the envelope, copies it out and recycles the
// buffer.
func closeEnvelope(b *bytes.Buffer) []byte {
	b.WriteString(envelopeClose)
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	recycleBuf(b)
	return out
}

// writeParam writes one xsi-typed parameter element.
func writeParam(b *bytes.Buffer, name, xsdT, text string, wrapped bool) {
	b.WriteByte('<')
	b.WriteString(name)
	b.WriteString(` xsi:type="`)
	b.WriteString(xsdT)
	b.WriteByte('"')
	if wrapped {
		b.WriteString(` enc="base64"`)
	}
	b.WriteByte('>')
	xmltree.Escape(b, text)
	b.WriteString(`</`)
	b.WriteString(name)
	b.WriteByte('>')
}

// EncodeCall serializes an RPC request envelope.
func EncodeCall(c Call) ([]byte, error) {
	if c.Operation == "" {
		return nil, fmt.Errorf("soap: empty operation name")
	}
	b := openEnvelope()
	b.WriteString(`<m:`)
	b.WriteString(c.Operation)
	b.WriteString(` xmlns:m="`)
	xmltree.Escape(b, c.Namespace)
	b.WriteString(`">`)
	for _, a := range c.Args {
		t, err := xsdType(a.Value.Kind())
		if err != nil {
			recycleBuf(b)
			return nil, fmt.Errorf("soap: arg %s: %w", a.Name, err)
		}
		text, wrapped := encodeValueText(a.Value)
		writeParam(b, a.Name, t, text, wrapped)
	}
	b.WriteString(`</m:`)
	b.WriteString(c.Operation)
	b.WriteByte('>')
	return closeEnvelope(b), nil
}

// EncodeResponse serializes an RPC response envelope. A void result
// produces an empty <m:<op>Response/> element, matching Apache SOAP.
func EncodeResponse(namespace, operation string, result service.Value) ([]byte, error) {
	b := openEnvelope()
	b.WriteString(`<m:`)
	b.WriteString(operation)
	b.WriteString(`Response xmlns:m="`)
	xmltree.Escape(b, namespace)
	b.WriteString(`">`)
	if !result.IsVoid() {
		t, err := xsdType(result.Kind())
		if err != nil {
			recycleBuf(b)
			return nil, fmt.Errorf("soap: result: %w", err)
		}
		text, wrapped := encodeValueText(result)
		writeParam(b, "return", t, text, wrapped)
	}
	b.WriteString(`</m:`)
	b.WriteString(operation)
	b.WriteString(`Response>`)
	return closeEnvelope(b), nil
}

// EncodeFault serializes a fault envelope.
func EncodeFault(f *Fault) []byte {
	b := openEnvelope()
	b.WriteString(`<SOAP-ENV:Fault><faultcode>SOAP-ENV:`)
	xmltree.Escape(b, f.Code)
	b.WriteString(`</faultcode><faultstring>`)
	xmltree.Escape(b, f.String)
	b.WriteString(`</faultstring>`)
	if f.Actor != "" {
		b.WriteString(`<faultactor>`)
		xmltree.Escape(b, f.Actor)
		b.WriteString(`</faultactor>`)
	}
	if f.Detail != "" {
		b.WriteString(`<detail><code>`)
		xmltree.Escape(b, f.Detail)
		b.WriteString(`</code></detail>`)
	}
	b.WriteString(`</SOAP-ENV:Fault>`)
	return closeEnvelope(b)
}

// parseBody decodes an envelope and returns the first element inside Body.
func parseBody(data []byte) (*xmltree.Element, error) {
	root, err := xmltree.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("soap: parse envelope: %w", err)
	}
	if root.Name.Local == "Envelope" && root.Name.Space != EnvelopeNS {
		return nil, fmt.Errorf("soap: envelope namespace %q is not SOAP 1.1", root.Name.Space)
	}
	if root.Name.Local != "Envelope" {
		return nil, fmt.Errorf("soap: no Body element found")
	}
	body := root.ChildNS(EnvelopeNS, "Body")
	if body == nil || len(body.Children) == 0 {
		return nil, fmt.Errorf("soap: no Body element found")
	}
	return body.Children[0], nil
}

// parseFault converts a parsed <Fault> element into a Fault value.
func parseFault(el *xmltree.Element) *Fault {
	f := &Fault{}
	if code := el.ChildText("faultcode"); code != "" {
		if i := strings.IndexByte(code, ':'); i >= 0 {
			code = code[i+1:]
		}
		f.Code = code
	}
	f.String = el.ChildText("faultstring")
	f.Actor = el.ChildText("faultactor")
	if d := el.Child("detail"); d != nil {
		f.Detail = d.ChildText("code")
	}
	return f
}

// isFault reports whether el is a SOAP 1.1 <Fault>.
func isFault(el *xmltree.Element) bool {
	return el.Name.Local == "Fault" && el.Name.Space == EnvelopeNS
}

// DecodeCall parses an RPC request envelope.
func DecodeCall(data []byte) (Call, error) {
	el, err := parseBody(data)
	if err != nil {
		return Call{}, err
	}
	if isFault(el) {
		return Call{}, fmt.Errorf("soap: request contains a fault: %w", parseFault(el))
	}
	c := Call{Namespace: el.Name.Space, Operation: el.Name.Local}
	if !xmlSafe(c.Namespace) {
		// The scanner passes invalid UTF-8 through; a namespace the
		// encoder could not write back is no service's.
		return Call{}, fmt.Errorf("soap: operation namespace %q is not XML text", c.Namespace)
	}
	if n := len(el.Children); n > 0 {
		c.Args = make([]Arg, 0, n)
	}
	for _, p := range el.Children {
		t := p.Attr("type")
		if t == "" {
			return Call{}, fmt.Errorf("soap: parameter %s missing xsi:type", p.Name.Local)
		}
		k, err := kindFromXSD(t)
		if err != nil {
			return Call{}, fmt.Errorf("soap: parameter %s: %w", p.Name.Local, err)
		}
		v, err := decodeValueText(k, p.Text, p.Attr("enc") == "base64")
		if err != nil {
			return Call{}, fmt.Errorf("soap: parameter %s: %w", p.Name.Local, err)
		}
		c.Args = append(c.Args, Arg{Name: p.Name.Local, Value: v})
	}
	return c, nil
}

// DecodeResponse parses a response envelope, returning the result value or
// the decoded fault. The fault is returned as a value (not an error) so
// callers can distinguish transport errors from remote faults.
func DecodeResponse(data []byte) (service.Value, *Fault, error) {
	el, err := parseBody(data)
	if err != nil {
		return service.Value{}, nil, err
	}
	if isFault(el) {
		return service.Value{}, parseFault(el), nil
	}
	if !strings.HasSuffix(el.Name.Local, "Response") {
		return service.Value{}, nil, fmt.Errorf("soap: unexpected response element %s", el.Name.Local)
	}
	ret := el.Child("return")
	if ret == nil {
		return service.Void(), nil, nil
	}
	t := ret.Attr("type")
	if t == "" {
		return service.Value{}, nil, fmt.Errorf("soap: return missing xsi:type")
	}
	k, err := kindFromXSD(t)
	if err != nil {
		return service.Value{}, nil, err
	}
	v, err := decodeValueText(k, ret.Text, ret.Attr("enc") == "base64")
	if err != nil {
		return service.Value{}, nil, err
	}
	return v, nil, nil
}
