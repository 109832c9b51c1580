// Package wsdl generates and parses the WSDL 1.1 service descriptions the
// framework's Virtual Service Repository stores (§3.3, §4.1 of the paper:
// "VSR has been implemented by WSDL ... and UDDI"). Only the subset
// needed for RPC/encoded SOAP services is supported: messages with typed
// parts, a portType, one SOAP binding, and one service/port carrying the
// endpoint address.
package wsdl

import (
	"fmt"
	"strings"

	"homeconnect/internal/service"
	"homeconnect/internal/xmltree"
)

// Namespace constants for generated documents.
const (
	WSDLNS     = "http://schemas.xmlsoap.org/wsdl/"
	SOAPBindNS = "http://schemas.xmlsoap.org/wsdl/soap/"
	XSDNS      = "http://www.w3.org/2001/XMLSchema"
	// TNSPrefix prefixes each interface's target namespace.
	TNSPrefix = "urn:homeconnect:iface:"
)

// Document is a parsed WSDL description: the service interface plus the
// SOAP endpoint location.
type Document struct {
	Interface service.Interface
	// Location is the soap:address of the single port ("" if absent).
	Location string
}

// xsdOf maps a Kind to its xsd: part type.
func xsdOf(k service.Kind) (string, error) {
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
		return "", fmt.Errorf("wsdl: no xsd type for %v: %w", k, service.ErrBadKind)
	}
}

// kindOf inverts xsdOf, tolerating any namespace prefix.
func kindOf(t string) (service.Kind, error) {
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
		return service.KindInvalid, fmt.Errorf("wsdl: unknown part type %q: %w", t, service.ErrBadKind)
	}
}

// Generate renders the interface as a WSDL document advertising the given
// SOAP endpoint location. An empty location omits the soap:address
// element. Renders are memoized per interface (see renderMemo), so
// services that share an interface pay for one render between them.
func Generate(it service.Interface, location string) ([]byte, error) {
	return renders.generate(it, location)
}

// render builds the document for it, cut around the one place a
// location goes: head ends inside the port element, tail closes it and
// the document.
func render(it service.Interface) (head, tail string, err error) {
	if err := it.Validate(); err != nil {
		return "", "", err
	}
	tns := TNSPrefix + it.Name
	w := xmltree.NewWriter()
	w.Open("definitions",
		"name", it.Name,
		"targetNamespace", tns,
		"xmlns", WSDLNS,
		"xmlns:tns", tns,
		"xmlns:soap", SOAPBindNS,
		"xmlns:xsd", XSDNS,
	)
	if it.Doc != "" {
		w.Leaf("documentation", it.Doc)
	}
	// Messages.
	for _, op := range it.Operations {
		w.Open("message", "name", op.Name+"Input")
		for _, p := range op.Inputs {
			t, err := xsdOf(p.Type)
			if err != nil {
				return "", "", fmt.Errorf("wsdl: %s/%s: %w", op.Name, p.Name, err)
			}
			w.SelfClose("part", "name", p.Name, "type", t)
		}
		w.Close()
		w.Open("message", "name", op.Name+"Output")
		if op.Output != service.KindVoid {
			t, err := xsdOf(op.Output)
			if err != nil {
				return "", "", fmt.Errorf("wsdl: %s return: %w", op.Name, err)
			}
			w.SelfClose("part", "name", "return", "type", t)
		}
		w.Close()
	}
	// PortType.
	w.Open("portType", "name", it.Name)
	for _, op := range it.Operations {
		w.Open("operation", "name", op.Name)
		if op.Doc != "" {
			w.Leaf("documentation", op.Doc)
		}
		w.SelfClose("input", "message", "tns:"+op.Name+"Input")
		w.SelfClose("output", "message", "tns:"+op.Name+"Output")
		w.Close()
	}
	w.Close()
	// Binding (rpc/encoded over HTTP, as in the Apache SOAP prototype).
	w.Open("binding", "name", it.Name+"SoapBinding", "type", "tns:"+it.Name)
	w.SelfClose("soap:binding", "style", "rpc", "transport", "http://schemas.xmlsoap.org/soap/http")
	for _, op := range it.Operations {
		w.Open("operation", "name", op.Name)
		w.SelfClose("soap:operation", "soapAction", tns+"#"+op.Name)
		w.Open("input")
		w.SelfClose("soap:body", "use", "encoded", "namespace", tns)
		w.Close()
		w.Open("output")
		w.SelfClose("soap:body", "use", "encoded", "namespace", tns)
		w.Close()
		w.Close()
	}
	w.Close()
	// Service: the soap:address element, when there is one, is the port's
	// only child.
	w.Open("service", "name", it.Name)
	w.Open("port", "name", it.Name+"Port", "binding", "tns:"+it.Name+"SoapBinding")
	n := w.Len()
	doc := w.Bytes()
	return string(doc[:n]), string(doc[n:]), nil
}

// Parse reads a WSDL document back into an interface and endpoint
// location. It accepts documents produced by Generate and tolerates extra
// elements it does not understand.
func Parse(data []byte) (Document, error) {
	root, err := xmltree.Parse(data)
	if err != nil {
		return Document{}, fmt.Errorf("wsdl: %w", err)
	}
	if root.Name.Local != "definitions" {
		return Document{}, fmt.Errorf("wsdl: root element is %s, want definitions", root.Name.Local)
	}
	it := service.Interface{Name: root.Attr("name")}
	if d := root.Child("documentation"); d != nil {
		it.Doc = strings.TrimSpace(d.Text)
	}

	// Index messages by name.
	type part struct {
		name string
		kind service.Kind
	}
	messages := make(map[string][]part)
	for _, m := range root.All("message") {
		var parts []part
		for _, p := range m.All("part") {
			k, err := kindOf(p.Attr("type"))
			if err != nil {
				return Document{}, fmt.Errorf("wsdl: message %s: %w", m.Attr("name"), err)
			}
			parts = append(parts, part{name: p.Attr("name"), kind: k})
		}
		messages[m.Attr("name")] = parts
	}

	pt := root.Child("portType")
	if pt == nil {
		return Document{}, fmt.Errorf("wsdl: missing portType")
	}
	if it.Name == "" {
		it.Name = pt.Attr("name")
	}
	stripTNS := func(ref string) string {
		if i := strings.IndexByte(ref, ':'); i >= 0 {
			return ref[i+1:]
		}
		return ref
	}
	for _, opEl := range pt.All("operation") {
		op := service.Operation{Name: opEl.Attr("name"), Output: service.KindVoid}
		if d := opEl.Child("documentation"); d != nil {
			op.Doc = strings.TrimSpace(d.Text)
		}
		if in := opEl.Child("input"); in != nil {
			ref := stripTNS(in.Attr("message"))
			for _, p := range messages[ref] {
				op.Inputs = append(op.Inputs, service.Parameter{Name: p.name, Type: p.kind})
			}
		}
		if out := opEl.Child("output"); out != nil {
			ref := stripTNS(out.Attr("message"))
			parts := messages[ref]
			if len(parts) > 1 {
				return Document{}, fmt.Errorf("wsdl: operation %s: multi-part outputs unsupported", op.Name)
			}
			if len(parts) == 1 {
				op.Output = parts[0].kind
			}
		}
		it.Operations = append(it.Operations, op)
	}

	doc := Document{Interface: it}
	if svc := root.Child("service"); svc != nil {
		if port := svc.Child("port"); port != nil {
			for _, c := range port.Children {
				if c.Name.Local == "address" {
					doc.Location = c.Attr("location")
				}
			}
		}
	}
	if err := it.Validate(); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// TargetNamespace returns the namespace Generate assigns to an interface.
func TargetNamespace(interfaceName string) string { return TNSPrefix + interfaceName }

// SOAPAction returns the soapAction URI for an operation of an interface,
// matching the generated binding.
func SOAPAction(interfaceName, op string) string {
	return TargetNamespace(interfaceName) + "#" + op
}
