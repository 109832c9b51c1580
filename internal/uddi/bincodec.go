// Binary-native registry protocol: the framework-internal encoding of
// the UDDI operations (save/find/get/delete/watch) for the session-keyed
// fast path. The XML wire stays byte-identical for HTTP callers; between
// framework-owned endpoints that negotiated a binary session, the same
// operations ride compact WAL-style records — op byte, uvarint lengths —
// inside MAC'd frames, skipping XML encode/escape/parse entirely. This
// is where the fast path earns its latency target: the frame layer alone
// only removes HTTP, while registry traffic (watch rounds above all) is
// dominated by document encoding.
//
// The record grammar reuses the WAL's field encoding (appendWALString /
// walReader), so an entry encodes identically in the journal on disk and
// on the wire.
package uddi

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// BinContentType marks a binary-native registry request or response
// inside a fast-path frame. A registry face refuses any other content
// type: XML documents go to the HTTP face.
const BinContentType = "application/x-homeconnect-binuddi"

// binUDDIVersion versions the record grammar; a decoder seeing any other
// version refuses the record.
const binUDDIVersion = 1

// Request records.
const (
	binUDDISaveAll = 'S' // uvarint ttlMS, uvarint n, n × entry
	binUDDIDelete  = 'D' // key
	binUDDIFind    = 'F' // name, tModel, uvarint n, n × (key, value)
	binUDDIGet     = 'G' // key
	binUDDIWatch   = 'W' // uvarint since, uvarint timeoutMS, uvarint sinceEpoch
	// Paged state transfer (every face; see page.go).
	binUDDIPage = 'P' // uvarint requester epoch, after key
	// Replication requests (private repository face only; see replica.go).
	binUDDIReplWatch  = 'V' // uvarint since, uvarint timeoutMS, uvarint epoch
	binUDDIReplStatus = 'Q' // (empty)
)

// Response records.
const (
	binUDDIKeys    = 'K' // uvarint n, n × key
	binUDDIEntries = 'L' // uvarint seq, uvarint n, n × entry
	binUDDIChanges = 'C' // uvarint next, bool resync, uvarint epoch, uvarint n, n × (uvarint seq, op byte, entry)
	binUDDIError   = 'E' // code, info — the dispositionReport twin
	binUDDIPageR   = 'N' // uvarint seq, uvarint epoch, leader, uvarint boundary, { 1, uvarint expMS, entry }*, 0, next key
	// Replication responses.
	binUDDIReplChange  = 'H' // uvarint next, bool resync, uvarint epoch, leader, uvarint n, n × (uvarint seq, op byte, uvarint expMS, entry)
	binUDDIReplStatusR = 'T' // uvarint seq, uvarint epoch, leader, role, replicaOf
)

// appendBinEntry appends one entry in WAL field order (minus the
// journal-only expiry stamp); binEntrySize is its exact length. Category
// pairs sort so identical entries encode identically.
func appendBinEntry(b []byte, e *Entry) []byte {
	b = appendWALString(b, e.Key)
	b = appendWALString(b, e.Name)
	b = appendWALString(b, e.Description)
	b = appendWALString(b, e.AccessPoint)
	b = appendWALString(b, e.TModel)
	b = appendWALString(b, e.WSDL)
	b = binary.AppendUvarint(b, uint64(len(e.Categories)))
	if len(e.Categories) > 0 {
		// Sized for the usual bag (vsr sends two pairs plus context) so
		// the sort scratch stays on the stack.
		var small [8]string
		keys := small[:0]
		for k := range e.Categories {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendWALString(b, k)
			b = appendWALString(b, e.Categories[k])
		}
	}
	return b
}

// minBinEntry is the smallest encoded entry: six empty strings and an
// empty category count. Decoders size no slice for more entries than a
// record's remaining bytes could hold at that size.
const minBinEntry = 7

// decodeBinEntry reads one entry. The strings that repeat across
// entries (the interface's tModel and WSDL, the category keys) come from
// the intern table, so a registry of many services of one interface
// holds one copy of its document.
func decodeBinEntry(r *walReader) Entry {
	var e Entry
	e.Key = r.str()
	e.Name = r.str()
	e.Description = r.str()
	e.AccessPoint = r.str()
	e.TModel = r.shared()
	e.WSDL = r.shared()
	ncats := r.count()
	if ncats > 0 {
		e.Categories = make(map[string]string, ncats)
		for i := 0; i < ncats; i++ {
			k := r.shared()
			e.Categories[k] = r.str()
		}
	}
	return e
}

// interned keeps one copy of each string that repeats across registry
// entries. Every service of an interface publishes the same document
// (vsr.EntryFor leaves the address to the access point), so a registry
// of N devices decodes one ~1 KB text N times; the decoders file every
// entry with the table's copy and drop the decoded bytes. The table is
// process-wide, so a registry's saves, WAL replay, snapshot load and
// replica feed, and a client's pages and watch rounds, all share it. It
// is bounded by reset, like the wsdl memos: a home holds few interfaces,
// so blowing the cap means churn, not a working set worth keeping. The
// cap counts bytes as well as strings, so documents a peer sends and then
// deletes pin at most maxInternedBytes (plus the one string that
// overflowed it).
var interned struct {
	mu    sync.Mutex
	m     map[string]string
	bytes int
}

const (
	maxInterned      = 1024
	maxInternedBytes = 4 << 20
)

// intern returns the table's copy of b's text, adding one on a miss. A
// hit allocates nothing.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if s, ok := interned.m[string(b)]; ok {
		return s
	}
	return internAdd(string(b))
}

// internString is intern for a string a decoder already holds; a miss
// files a copy, so the table pins no larger buffer s may point into.
func internString(s string) string {
	if s == "" {
		return ""
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if v, ok := interned.m[s]; ok {
		return v
	}
	return internAdd(strings.Clone(s))
}

// internAdd files s, first emptying a full table. Caller holds
// interned.mu.
func internAdd(s string) string {
	if interned.m == nil || len(interned.m) >= maxInterned || interned.bytes+len(s) > maxInternedBytes {
		interned.m, interned.bytes = make(map[string]string), 0
	}
	interned.m[s] = s
	interned.bytes += len(s)
	return s
}

// count reads an element count. Every element takes at least one byte,
// so a count larger than the bytes left is malformed and must not size an
// allocation: it fails the reader and reads as zero.
func (r *walReader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.rest()) {
		r.err = fmt.Errorf("uddi: count %d exceeds the record", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// byte reads one byte; reading past the record fails the reader.
func (r *walReader) byte() byte {
	if r.fill(1); r.err == nil && r.off >= len(r.b) {
		r.err = fmt.Errorf("uddi: truncated record")
	}
	if r.err != nil {
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// binReaderFor validates the version/op header and positions a reader
// past it.
func binReaderFor(data []byte) (op byte, r *walReader, err error) {
	if len(data) < 2 {
		return 0, nil, fmt.Errorf("uddi: short binary record")
	}
	if data[0] != binUDDIVersion {
		return 0, nil, fmt.Errorf("uddi: unknown binary record version %d", data[0])
	}
	return data[1], &walReader{b: data, off: 2}, nil
}

// --- request encoding (client side) -------------------------------------

// recordHead bounds a record's version and op bytes plus two uvarint
// header fields, what every sized encoder adds to its entries.
const recordHead = 2 + 2*binary.MaxVarintLen64

func encodeBinSaveAll(entries []Entry, ttl time.Duration) []byte {
	n := recordHead
	for i := range entries {
		n += binEntrySize(&entries[i])
	}
	b := append(make([]byte, 0, n), binUDDIVersion, binUDDISaveAll)
	b = binary.AppendUvarint(b, uint64(ttl/time.Millisecond))
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		b = appendBinEntry(b, &entries[i])
	}
	return b
}

func encodeBinDelete(key string) []byte {
	return appendWALString([]byte{binUDDIVersion, binUDDIDelete}, key)
}

func encodeBinFind(q Query) []byte {
	b := []byte{binUDDIVersion, binUDDIFind}
	b = appendWALString(b, q.Name)
	b = appendWALString(b, q.TModel)
	b = binary.AppendUvarint(b, uint64(len(q.Categories)))
	if len(q.Categories) > 0 {
		keys := make([]string, 0, len(q.Categories))
		for k := range q.Categories {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendWALString(b, k)
			b = appendWALString(b, q.Categories[k])
		}
	}
	return b
}

func encodeBinGet(key string) []byte {
	return appendWALString([]byte{binUDDIVersion, binUDDIGet}, key)
}

func encodeBinWatch(since, sinceEpoch uint64, timeout time.Duration) []byte {
	b := []byte{binUDDIVersion, binUDDIWatch}
	b = binary.AppendUvarint(b, since)
	b = binary.AppendUvarint(b, uint64(timeout/time.Millisecond))
	b = binary.AppendUvarint(b, sinceEpoch)
	return b
}

func encodeBinPageReq(after string, epoch uint64) []byte {
	b := binary.AppendUvarint([]byte{binUDDIVersion, binUDDIPage}, epoch)
	return appendWALString(b, after)
}

func encodeBinReplStatusReq() []byte {
	return []byte{binUDDIVersion, binUDDIReplStatus}
}

func encodeBinReplWatchReq(since, epoch uint64, timeout time.Duration) []byte {
	b := []byte{binUDDIVersion, binUDDIReplWatch}
	b = binary.AppendUvarint(b, since)
	b = binary.AppendUvarint(b, uint64(timeout/time.Millisecond))
	b = binary.AppendUvarint(b, epoch)
	return b
}

// encodeBinRequest encodes a request as its binary record.
func encodeBinRequest(req *request) []byte {
	switch req.op {
	case opSave:
		return encodeBinSaveAll(req.entries, req.ttl)
	case opDelete:
		return encodeBinDelete(req.key)
	case opFind:
		return encodeBinFind(req.query)
	case opGet:
		return encodeBinGet(req.key)
	case opWatch:
		return encodeBinWatch(req.since, req.epoch, req.timeout)
	case opPage:
		return encodeBinPageReq(req.after, req.epoch)
	case opReplWatch:
		return encodeBinReplWatchReq(req.since, req.epoch, req.timeout)
	}
	return encodeBinReplStatusReq()
}

// --- response encoding (server side) ------------------------------------
//
// Each reply encoder appends its record to the buffer it is handed (the
// link's frame buffer, see BinHandler), growing it once to the record's
// size bound before writing, so no reply is encoded into a buffer of its
// own or regrown along the way.

func appendBinKeys(b []byte, keys []string) []byte {
	n := recordHead
	for _, k := range keys {
		n += walStringSize(k)
	}
	b = append(slices.Grow(b, n), binUDDIVersion, binUDDIKeys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendWALString(b, k)
	}
	return b
}

func appendBinEntries(b []byte, seq uint64, entries []Entry) []byte {
	n := recordHead
	for i := range entries {
		n += binEntrySize(&entries[i])
	}
	b = append(slices.Grow(b, n), binUDDIVersion, binUDDIEntries)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		b = appendBinEntry(b, &entries[i])
	}
	return b
}

// appendBinChangeList appends a watch reply ('C') or, with lease, a
// replication feed reply ('H'), which also carries the leader and each
// change's lease deadline. next is the cursor after changes.
func appendBinChangeList(b []byte, rep *reply, changes []Change, next uint64, lease bool) []byte {
	n := recordHead + 2 + binary.MaxVarintLen64 + walStringSize(rep.leader)
	for i := range changes {
		n += binChangeSize(&changes[i].Entry)
	}
	op := byte(binUDDIChanges)
	if lease {
		op = binUDDIReplChange
	}
	b = append(slices.Grow(b, n), binUDDIVersion, op)
	b = binary.AppendUvarint(b, next)
	if rep.resync {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, rep.epoch)
	if lease {
		b = appendWALString(b, rep.leader)
	}
	b = binary.AppendUvarint(b, uint64(len(changes)))
	for i := range changes {
		c := &changes[i]
		b = binary.AppendUvarint(b, c.Seq)
		b = append(b, changeOpWAL(c.Op))
		if lease {
			var expMS uint64
			if !c.Expires.IsZero() {
				expMS = uint64(c.Expires.UnixMilli())
			}
			b = binary.AppendUvarint(b, expMS)
		}
		b = appendBinEntry(b, &c.Entry)
	}
	return b
}

func appendBinError(b []byte, code, info string) []byte {
	b = append(b, binUDDIVersion, binUDDIError)
	b = appendWALString(b, code)
	return appendWALString(b, info)
}

func appendBinReplStatus(b []byte, st ReplStatus) []byte {
	b = append(b, binUDDIVersion, binUDDIReplStatusR)
	b = binary.AppendUvarint(b, st.Seq)
	b = binary.AppendUvarint(b, st.Epoch)
	b = appendWALString(b, st.Leader)
	b = appendWALString(b, st.Role)
	b = appendWALString(b, st.ReplicaOf)
	return b
}

// --- response decoding (client side) ------------------------------------

// binErrorOf maps a decoded registry refusal to a typed error. It is the
// single mapping both wires use: roundTrip feeds it dispositionReport
// code/info, the binary path feeds it a decoded error record.
func binErrorOf(code, info string) error {
	switch code {
	case "E_authTokenRequired":
		return &authError{msg: fmt.Sprintf("uddi: %s: %s", code, info), kind: service.ErrUnauthenticated}
	case "E_userMismatch":
		return &authError{msg: fmt.Sprintf("uddi: %s: %s", code, info), kind: service.ErrForbidden}
	case "E_notLeader":
		return &notLeaderError{msg: fmt.Sprintf("uddi: %s: %s", code, info), leader: leaderHintIn(info)}
	case "E_staleEpoch":
		return fmt.Errorf("uddi: %s: %s: %w", code, info, ErrStaleEpoch)
	}
	return fmt.Errorf("uddi: %s: %s", code, info)
}

// decodeBinReply validates a binary response, handles the error record,
// and returns a reader positioned at the payload of the expected record.
func decodeBinReply(data []byte, want byte) (*walReader, error) {
	op, r, err := binReaderFor(data)
	if err != nil {
		return nil, err
	}
	if op == binUDDIError {
		code := r.str()
		info := r.str()
		if r.err != nil {
			return nil, r.err
		}
		return nil, binErrorOf(code, info)
	}
	if op != want {
		return nil, fmt.Errorf("uddi: binary response record %q, want %q", op, want)
	}
	return r, nil
}

// decodeBinReplyTo decodes the response record to req.
func decodeBinReplyTo(req *request, data []byte) (rep reply, err error) {
	switch req.op {
	case opSave, opDelete:
		rep.keys, err = decodeBinKeys(data)
	case opFind, opGet:
		rep.entries, rep.seq, err = decodeBinEntries(data)
	case opWatch, opReplWatch:
		rep, err = decodeBinChangeList(data, req.op == opReplWatch)
	case opPage:
		rep.page, err = decodeBinPage(data)
	case opReplStatus:
		rep.status, err = decodeBinReplStatus(data)
	}
	if err != nil {
		return reply{}, err
	}
	return rep, nil
}

func decodeBinKeys(data []byte) ([]string, error) {
	r, err := decodeBinReply(data, binUDDIKeys)
	if err != nil {
		return nil, err
	}
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, r.str())
	}
	return keys, r.err
}

func decodeBinEntries(data []byte) ([]Entry, uint64, error) {
	r, err := decodeBinReply(data, binUDDIEntries)
	if err != nil {
		return nil, 0, err
	}
	seq := r.uvarint()
	n := r.count()
	if r.err != nil {
		return nil, 0, r.err
	}
	var entries []Entry
	if n > 0 {
		entries = make([]Entry, 0, min(n, r.rest()/minBinEntry))
	}
	for i := 0; i < n && r.err == nil; i++ {
		entries = append(entries, decodeBinEntry(r))
	}
	return entries, seq, r.err
}

func decodeBinReplStatus(data []byte) (ReplStatus, error) {
	r, err := decodeBinReply(data, binUDDIReplStatusR)
	if err != nil {
		return ReplStatus{}, err
	}
	var st ReplStatus
	st.Seq = r.uvarint()
	st.Epoch = r.uvarint()
	st.Leader = r.str()
	st.Role = r.str()
	st.ReplicaOf = r.str()
	return st, r.err
}

// decodeBinChangeList parses a watch reply ('C') or, with lease, a
// replication feed reply ('H').
func decodeBinChangeList(data []byte, lease bool) (reply, error) {
	want := byte(binUDDIChanges)
	if lease {
		want = binUDDIReplChange
	}
	r, err := decodeBinReply(data, want)
	if err != nil {
		return reply{}, err
	}
	var rep reply
	rep.next = r.uvarint()
	rep.resync = r.byte() != 0
	rep.epoch = r.uvarint()
	if lease {
		rep.leader = r.str()
	}
	n := r.count()
	if n > 0 {
		// A change is at least a seq, an op byte, an expiry and an entry.
		rep.changes = make([]Change, 0, min(n, r.rest()/(minBinEntry+3)))
	}
	for i := 0; i < n && r.err == nil; i++ {
		c := Change{Seq: r.uvarint()}
		c.Op = walOpChange(r.byte())
		if lease {
			if expMS := r.uvarint(); expMS != 0 {
				c.Expires = time.UnixMilli(int64(expMS))
			}
		}
		c.Entry = decodeBinEntry(r)
		rep.changes = append(rep.changes, c)
	}
	if r.err != nil {
		return reply{}, r.err
	}
	return rep, nil
}

// --- server face ---------------------------------------------------------

// BinHandler returns face f's binary-native wire: UDDI operations as
// compact WAL-style records, decoded into the request serve runs with no
// XML in between. A request with any other content type is refused with
// 415 E_unsupported before it reaches the store. The reply record is
// encoded straight into the link's frame buffer (AppendBody), so a state
// page or feed batch is never built in a buffer of its own. Decoded
// entries are the request's own, so a save installs them without a copy.
func (s *Server) BinHandler(f Face) transport.BinHandler {
	return transport.BinHandlerFunc(func(ctx context.Context, caller string, r *transport.BinRequest) *transport.BinResponse {
		req := decodeBinRequest(r)
		rep := s.serve(ctx, &f, caller, &req)
		status := http.StatusOK
		if rep.fail != nil {
			status = rep.fail.status
		}
		return &transport.BinResponse{Status: status, ContentType: BinContentType,
			AppendBody: func(b []byte) []byte { return s.appendBinReply(b, &req, &rep) }}
	})
}

// binOps names each request record's operation.
var binOps = map[byte]struct {
	op   opKind
	name string
}{
	binUDDISaveAll:    {opSave, "save_services"},
	binUDDIDelete:     {opDelete, "delete_service"},
	binUDDIFind:       {opFind, "find_service"},
	binUDDIGet:        {opGet, "get_serviceDetail"},
	binUDDIWatch:      {opWatch, "watch"},
	binUDDIPage:       {opPage, "state_page"},
	binUDDIReplWatch:  {opReplWatch, "repl_watch"},
	binUDDIReplStatus: {opReplStatus, "repl_status"},
}

// decodeBinRequest reads one request record.
func decodeBinRequest(br *transport.BinRequest) request {
	fail := func(status int, code, info string) request {
		return request{fail: &failure{status, code, info}}
	}
	if br.ContentType != BinContentType {
		return fail(http.StatusUnsupportedMediaType, "E_unsupported", "binary registry face: unknown content type "+br.ContentType)
	}
	rec, r, err := binReaderFor(br.Body)
	if err != nil {
		return fail(http.StatusBadRequest, "E_fatalError", err.Error())
	}
	kind, ok := binOps[rec]
	if !ok {
		return fail(http.StatusBadRequest, "E_unsupported", fmt.Sprintf("unknown binary request %q", rec))
	}
	req := request{op: kind.op, name: kind.name}
	switch rec {
	case binUDDISaveAll:
		req.ttl = time.Duration(r.uvarint()) * time.Millisecond
		n := r.count()
		req.entries = make([]Entry, 0, min(n, r.rest()/minBinEntry))
		for i := 0; i < n && r.err == nil; i++ {
			req.entries = append(req.entries, decodeBinEntry(r))
		}
	case binUDDIDelete, binUDDIGet:
		req.key = r.str()
	case binUDDIFind:
		req.query = Query{Name: r.str(), TModel: r.str()}
		if n := r.count(); n > 0 {
			req.query.Categories = make(map[string]string, n)
			for i := 0; i < n; i++ {
				k := r.str()
				req.query.Categories[k] = r.str()
			}
		}
	case binUDDIWatch, binUDDIReplWatch:
		req.since = r.uvarint()
		req.timeout = time.Duration(r.uvarint()) * time.Millisecond
		req.epoch = r.uvarint()
	case binUDDIPage:
		req.epoch = r.uvarint()
		req.after = r.str()
	}
	if r.err != nil {
		req.fail = &failure{http.StatusBadRequest, "E_fatalError", r.err.Error()}
	}
	return req
}

// appendBinReply appends a served request's reply record to b.
func (s *Server) appendBinReply(b []byte, req *request, rep *reply) []byte {
	if f := rep.fail; f != nil {
		return appendBinError(b, f.code, f.info)
	}
	switch req.op {
	case opSave, opDelete:
		return appendBinKeys(b, rep.keys)
	case opFind, opGet:
		return appendBinEntries(b, rep.seq, rep.entries)
	case opWatch, opReplWatch:
		changes, next := cutChanges(rep)
		return appendBinChangeList(b, rep, changes, next, req.op == opReplWatch)
	case opReplStatus:
		return appendBinReplStatus(b, rep.status)
	case opPage:
		return s.appendBinPage(b, rep)
	}
	return b
}

// cutChanges bounds one binary watch batch: it keeps the visible changes
// until their encoded size passes pageBytes and returns them with the
// cursor to resume from (see reply.batch). The reply's changes are
// filtered in place.
func cutChanges(rep *reply) ([]Change, uint64) {
	kept := rep.changes[:0]
	size := 0
	next := rep.batch(func(c Change) bool {
		kept = append(kept, c)
		size += binChangeSize(&c.Entry)
		return size >= pageBytes
	})
	return kept, next
}
