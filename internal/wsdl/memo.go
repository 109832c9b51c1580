package wsdl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"

	"homeconnect/internal/service"
	"homeconnect/internal/xmltree"
)

// memo memoizes Parse by a document's interface part: its text with the
// endpoint location cut out. Every registration of a service re-journals
// its document, and every watcher of that journal (gateways, peer links,
// subscribers) parses it again; services that share an interface differ
// only in their soap:address, so one parse serves them all and a hit
// returns the caller's own location. A memoized Document shares its
// parsed Interface with every hit, so consumers treat it as read-only.
//
// A document is split at its last `location="…"` attribute value, and
// only when the value is plain URL text (printable ASCII with no quote,
// angle bracket or ampersand, so its raw and parsed forms agree). The
// split is trusted only once proven: the first parse of each interface
// part also parses the document with a probe location in the slot, and
// the part is memoized only if the probe moved the parsed Location and
// nothing else. A document that cannot be split, or whose split fails
// the probe, is memoized whole (or not at all), so a hit always equals
// what Parse returns for the same text.
//
// The memo is bounded by reset rather than eviction: a federation holds
// few distinct interfaces, so blowing the cap means churn, not a working
// set worth preserving. The zero memo is ready to use.
type memo struct {
	mu   sync.Mutex
	docs map[memoKey]Document
}

// memoKey is a document's text around its location value; a document
// memoized whole has its text in head and an empty tail, which never
// collides with a split key (a split tail starts with the closing quote).
type memoKey struct{ head, tail string }

const (
	maxMemo      = 512
	locationAttr = `location="`
	// memoProbe stands in for the location while a split is proven; a
	// document containing it outside the slot is never split.
	memoProbe = "urn:homeconnect:wsdl-memo-probe"
)

var shared memo

// ParseShared returns what Parse returns for a document's text, from a
// process-wide memo when a document with the same interface part was
// parsed before (see memo). The returned Interface may be shared with
// other callers and must not be modified.
func ParseShared(text string) (Document, error) { return shared.parse(text) }

func (m *memo) parse(text string) (Document, error) {
	head, loc, tail, split := splitLocation(text)
	key := memoKey{head: text}
	if split {
		key = memoKey{head: head, tail: tail}
	}
	m.mu.Lock()
	doc, ok := m.docs[key]
	m.mu.Unlock()
	if ok {
		if split {
			doc.Location = loc
		}
		return doc, nil
	}
	doc, err := Parse([]byte(text))
	if err != nil {
		return Document{}, err
	}
	if split && !provenSlot(doc, head, loc, tail) {
		// The value is not (only) the address: memoizing the whole text
		// would never hit, since lookups use the split key.
		return doc, nil
	}
	m.mu.Lock()
	if m.docs == nil || len(m.docs) >= maxMemo {
		m.docs = make(map[memoKey]Document, maxMemo)
	}
	m.docs[memoKey{strings.Clone(key.head), strings.Clone(key.tail)}] = doc
	m.mu.Unlock()
	return doc, nil
}

// splitLocation cuts text around the value of its last location
// attribute; split is false when there is none or its value is not
// plain URL text.
func splitLocation(text string) (head, loc, tail string, split bool) {
	i := strings.LastIndex(text, locationAttr)
	if i < 0 {
		return "", "", "", false
	}
	start := i + len(locationAttr)
	end := strings.IndexByte(text[start:], '"')
	if end < 0 {
		return "", "", "", false
	}
	end += start
	for j := start; j < end; j++ {
		if c := text[j]; c <= ' ' || c >= 0x7f || c == '<' || c == '>' || c == '&' || c == '\'' {
			return "", "", "", false
		}
	}
	return text[:start], text[start:end], text[end:], true
}

// provenSlot reports whether the split value is exactly the parsed
// Location: doc, the parse of head+loc+tail, carries loc, and the same
// text with the probe in the slot parses to the probe and the same
// interface.
func provenSlot(doc Document, head, loc, tail string) bool {
	if doc.Location != loc || strings.Contains(head, memoProbe) || strings.Contains(tail, memoProbe) {
		return false
	}
	probe, err := Parse([]byte(head + memoProbe + tail))
	return err == nil && probe.Location == memoProbe && reflect.DeepEqual(probe.Interface, doc.Interface)
}

// renderMemo memoizes Generate's render by interface, beside the parse
// memo. Services that share an interface differ only in their
// soap:address, so one render serves them all: a hit writes the
// memoized head, the caller's own address element and the tail, which
// is what a fresh render writes. The key is a length-prefixed encoding
// of every field the render reads (names, docs and kinds), not a hash,
// so a hit never returns another interface's document. Only successful
// renders are memoized: Validate runs on a miss, and every hit's
// interface passed it. Bounded by reset at maxMemo, like memo. The zero
// renderMemo is ready to use.
type renderMemo struct {
	mu   sync.Mutex
	docs map[string]rendered
}

// rendered is a document cut where its soap:address element goes.
type rendered struct{ head, tail string }

var renders renderMemo

func (m *renderMemo) generate(it service.Interface, location string) ([]byte, error) {
	var small [256]byte
	key := appendInterfaceKey(small[:0], it)
	m.mu.Lock()
	r, ok := m.docs[string(key)]
	m.mu.Unlock()
	if !ok {
		head, tail, err := render(it)
		if err != nil {
			return nil, err
		}
		r = rendered{head: head, tail: tail}
		m.mu.Lock()
		if m.docs == nil || len(m.docs) >= maxMemo {
			m.docs = make(map[string]rendered, maxMemo)
		}
		m.docs[string(key)] = r
		m.mu.Unlock()
	}
	const addrOpen, addrClose = `<soap:address location="`, `"/>`
	var b bytes.Buffer
	b.Grow(len(r.head) + len(addrOpen) + len(location) + len(addrClose) + len(r.tail))
	b.WriteString(r.head)
	if location != "" {
		b.WriteString(addrOpen)
		xmltree.Escape(&b, location)
		b.WriteString(addrClose)
	}
	b.WriteString(r.tail)
	return b.Bytes(), nil
}

// appendInterfaceKey appends the memo key of it: every string length-prefixed
// and every count and kind a varint, so two interfaces share a key only
// when they are equal field for field.
func appendInterfaceKey(b []byte, it service.Interface) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = str(b, it.Name)
	b = str(b, it.Doc)
	b = binary.AppendUvarint(b, uint64(len(it.Operations)))
	for _, op := range it.Operations {
		b = str(b, op.Name)
		b = str(b, op.Doc)
		b = binary.AppendVarint(b, int64(op.Output))
		b = binary.AppendUvarint(b, uint64(len(op.Inputs)))
		for _, p := range op.Inputs {
			b = str(b, p.Name)
			b = binary.AppendVarint(b, int64(p.Type))
		}
	}
	return b
}
