package wsdl

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"

	"homeconnect/internal/service"
	"homeconnect/internal/xmltree"
)

// memo memoizes Parse by a document's text. Every registration of a
// service re-journals its document, and every watcher of that journal
// (gateways, peer links, subscribers) parses it again; the services of
// one interface publish the same document (the address lives in the
// registry entry's access point), so one parse serves them all. A
// memoized Document shares its parsed Interface with every hit, so
// consumers treat it as read-only. Only successful parses are memoized.
//
// The memo is bounded by reset rather than eviction: a federation holds
// few distinct interfaces, so blowing the cap means churn, not a working
// set worth preserving. The zero memo is ready to use.
type memo struct {
	mu   sync.Mutex
	docs map[string]Document
}

const maxMemo = 512

var shared memo

// ParseShared returns what Parse returns for a document's text, from a
// process-wide memo when the same text was parsed before (see memo).
// The returned Interface may be shared with other callers and must not
// be modified.
func ParseShared(text string) (Document, error) { return shared.parse(text) }

func (m *memo) parse(text string) (Document, error) {
	m.mu.Lock()
	doc, ok := m.docs[text]
	m.mu.Unlock()
	if ok {
		return doc, nil
	}
	doc, err := Parse([]byte(text))
	if err != nil {
		return Document{}, err
	}
	m.mu.Lock()
	if m.docs == nil || len(m.docs) >= maxMemo {
		m.docs = make(map[string]Document, maxMemo)
	}
	m.docs[strings.Clone(text)] = doc
	m.mu.Unlock()
	return doc, nil
}

// renderMemo memoizes Generate's render by interface, beside the parse
// memo. Documents of one interface differ at most in their soap:address,
// so one render serves them all: a hit writes the
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
