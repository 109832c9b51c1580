// Package uddi implements the service repository protocol behind the
// paper's Virtual Service Repository: "Currently VSR has been implemented
// by WSDL ... and Universal Description, Discovery and Integration (UDDI)"
// (§4.1). It provides a registry server storing service entries (name,
// access point, interface tModel, inline WSDL, category bag) and a client
// speaking a compact XML-over-HTTP protocol modelled on the UDDI v2
// inquiry/publication API: save_service, delete_service, find_service,
// get_serviceDetail.
//
// Entries carry a time-to-live; publishers refresh periodically and the
// registry expires stale services, giving the federation the liveness that
// Jini gets from leases. Batched publication (save_services) renews a
// gateway's whole export set in one round trip.
//
// Beyond the UDDI v2 API, the registry is an active component: every
// mutation (add, update, delete, expire) is assigned a monotonically
// increasing sequence number and recorded in a bounded change journal, and
// a long-poll watch operation streams those changes to clients — the
// push-based repository the paper's passive §3.3 database lacks, after
// Dearle et al.'s argument that a registry should notify rather than be
// polled.
package uddi

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// Entry is one registered service.
type Entry struct {
	// Key uniquely identifies the registration; assigned by the registry
	// on first save if empty.
	Key string
	// Name is the human-readable service name, searchable with % globs.
	Name string
	// Description is free-form text.
	Description string
	// AccessPoint is the service endpoint URL (the VSG SOAP endpoint).
	AccessPoint string
	// TModel names the abstract interface the service implements.
	TModel string
	// WSDL is the inline interface description document.
	WSDL string
	// Categories is the category bag: free-form attribute pairs
	// (the paper's "service contexts").
	Categories map[string]string
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	cp := e
	if e.Categories != nil {
		cp.Categories = make(map[string]string, len(e.Categories))
		for k, v := range e.Categories {
			cp.Categories[k] = v
		}
	}
	return cp
}

// Query selects entries. Zero-value fields match everything.
type Query struct {
	// Name matches the entry name; '%' is a multi-character wildcard, as
	// in UDDI find qualifiers.
	Name string
	// TModel, if set, must equal the entry's TModel exactly.
	TModel string
	// Categories must all be present with equal values in the entry's
	// category bag.
	Categories map[string]string
}

// Matches reports whether the entry satisfies the query. Note that a
// category with an empty value also matches entries lacking that key.
func (q Query) Matches(e Entry) bool { return q.matcher().matches(e) }

// matcher is a Query prepared for testing many entries: Find builds one
// per inquiry, so the name pattern is split once, not once per entry.
type matcher struct {
	q    Query
	name namePattern // nil when q.Name is empty (any name)
}

func (q Query) matcher() matcher {
	m := matcher{q: q}
	if q.Name != "" {
		m.name = compileName(q.Name)
	}
	return m
}

func (m matcher) matches(e Entry) bool {
	if m.name != nil && !m.name.match(e.Name) {
		return false
	}
	if m.q.TModel != "" && m.q.TModel != e.TModel {
		return false
	}
	for k, v := range m.q.Categories {
		if e.Categories[k] != v {
			return false
		}
	}
	return true
}

// namePattern is a name pattern split on its UDDI-style '%' wildcards
// (each matches any run, including empty). Matching is case-sensitive,
// like UDDI's exactNameMatch qualifier combined with wildcards.
type namePattern []string

func compileName(pattern string) namePattern { return strings.Split(pattern, "%") }

func (p namePattern) match(s string) bool {
	if len(p) == 1 {
		return p[0] == s
	}
	if !strings.HasPrefix(s, p[0]) {
		return false
	}
	s = s[len(p[0]):]
	for _, part := range p[1 : len(p)-1] {
		idx := strings.Index(s, part)
		if idx < 0 {
			return false
		}
		s = s[idx+len(part):]
	}
	return strings.HasSuffix(s, p[len(p)-1])
}

// NewKey returns a fresh random service key ("uuid:" + 32 hex digits).
func NewKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable; fall back to a time-based
		// key rather than panicking inside library code.
		return fmt.Sprintf("uuid:time-%d", time.Now().UnixNano())
	}
	return "uuid:" + hex.EncodeToString(b[:])
}

// DefaultTTL is the registration lifetime used when a save request does
// not specify one.
const DefaultTTL = 60 * time.Second

// ChangeOp classifies one registry mutation in the change journal.
type ChangeOp string

// Journal operations. Adds and updates carry the full entry; deletes and
// expiries carry only the key and name (enough to invalidate a cache).
const (
	OpAdd    ChangeOp = "add"
	OpUpdate ChangeOp = "update"
	OpDelete ChangeOp = "delete"
	OpExpire ChangeOp = "expire"
)

// Change is one journal record: a registry mutation stamped with its
// global sequence number. Watchers resume from a sequence number and
// receive every change after it, in order.
type Change struct {
	Seq   uint64
	Op    ChangeOp
	Entry Entry
	// Expires is the registration deadline for adds and updates — what the
	// replication feed (repl_watch) ships so a replica re-arms each lease
	// with the leader's remaining lifetime instead of a fresh TTL. Zero for
	// deletes and expiries, and omitted from the ordinary watch encodings.
	Expires time.Time
}
