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
	"sort"
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
// journal-only expiry stamp). Category pairs sort so identical entries
// encode identically.
func appendBinEntry(b []byte, e *Entry) []byte {
	b = appendWALString(b, e.Key)
	b = appendWALString(b, e.Name)
	b = appendWALString(b, e.Description)
	b = appendWALString(b, e.AccessPoint)
	b = appendWALString(b, e.TModel)
	b = appendWALString(b, e.WSDL)
	b = binary.AppendUvarint(b, uint64(len(e.Categories)))
	if len(e.Categories) > 0 {
		keys := make([]string, 0, len(e.Categories))
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

func decodeBinEntry(r *walReader) Entry {
	var e Entry
	e.Key = r.str()
	e.Name = r.str()
	e.Description = r.str()
	e.AccessPoint = r.str()
	e.TModel = r.str()
	e.WSDL = r.str()
	ncats := r.count()
	if ncats > 0 {
		e.Categories = make(map[string]string, ncats)
		for i := 0; i < ncats; i++ {
			k := r.str()
			e.Categories[k] = r.str()
		}
	}
	return e
}

// count reads an element count. Every element takes at least one byte,
// so a count larger than the bytes left is malformed and must not size an
// allocation: it fails the reader and reads as zero.
func (r *walReader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("uddi: count %d exceeds the record", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
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

func encodeBinSaveAll(entries []Entry, ttl time.Duration) []byte {
	b := []byte{binUDDIVersion, binUDDISaveAll}
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

// --- response encoding (server side) ------------------------------------

func encodeBinKeys(keys []string) []byte {
	b := []byte{binUDDIVersion, binUDDIKeys}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendWALString(b, k)
	}
	return b
}

func encodeBinEntries(seq uint64, entries []Entry) []byte {
	b := []byte{binUDDIVersion, binUDDIEntries}
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		b = appendBinEntry(b, &entries[i])
	}
	return b
}

func encodeBinChanges(changes []Change, next, epoch uint64, resync bool) []byte {
	b := []byte{binUDDIVersion, binUDDIChanges}
	b = binary.AppendUvarint(b, next)
	if resync {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, uint64(len(changes)))
	for i := range changes {
		c := &changes[i]
		b = binary.AppendUvarint(b, c.Seq)
		b = append(b, changeOpWAL(c.Op))
		b = appendBinEntry(b, &c.Entry)
	}
	return b
}

func encodeBinError(code, info string) []byte {
	b := []byte{binUDDIVersion, binUDDIError}
	b = appendWALString(b, code)
	return appendWALString(b, info)
}

func encodeBinReplChanges(rc ReplChanges) []byte {
	b := []byte{binUDDIVersion, binUDDIReplChange}
	b = binary.AppendUvarint(b, rc.Next)
	if rc.Resync {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, rc.Epoch)
	b = appendWALString(b, rc.Leader)
	b = binary.AppendUvarint(b, uint64(len(rc.Changes)))
	for i := range rc.Changes {
		c := &rc.Changes[i]
		b = binary.AppendUvarint(b, c.Seq)
		b = append(b, changeOpWAL(c.Op))
		var expMS uint64
		if !c.Expires.IsZero() {
			expMS = uint64(c.Expires.UnixMilli())
		}
		b = binary.AppendUvarint(b, expMS)
		b = appendBinEntry(b, &c.Entry)
	}
	return b
}

func encodeBinReplStatus(st ReplStatus) []byte {
	b := []byte{binUDDIVersion, binUDDIReplStatusR}
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
	for i := 0; i < n; i++ {
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

func decodeBinReplChanges(data []byte) (ReplChanges, error) {
	r, err := decodeBinReply(data, binUDDIReplChange)
	if err != nil {
		return ReplChanges{}, err
	}
	var rc ReplChanges
	rc.Next = r.uvarint()
	if r.err == nil {
		if r.off >= len(r.b) {
			r.err = fmt.Errorf("uddi: truncated repl change list")
		} else {
			rc.Resync = r.b[r.off] != 0
			r.off++
		}
	}
	rc.Epoch = r.uvarint()
	rc.Leader = r.str()
	n := r.count()
	if r.err != nil {
		return ReplChanges{}, r.err
	}
	for i := 0; i < n; i++ {
		seq := r.uvarint()
		if r.err != nil || r.off >= len(r.b) {
			return ReplChanges{}, fmt.Errorf("uddi: truncated repl change record")
		}
		op := walOpChange(r.b[r.off])
		r.off++
		expMS := r.uvarint()
		e := decodeBinEntry(r)
		if r.err != nil {
			return ReplChanges{}, r.err
		}
		c := Change{Seq: seq, Op: op, Entry: e}
		if expMS != 0 {
			c.Expires = time.UnixMilli(int64(expMS))
		}
		rc.Changes = append(rc.Changes, c)
	}
	return rc, nil
}

func decodeBinChanges(data []byte) (changes []Change, next, epoch uint64, resync bool, err error) {
	r, err := decodeBinReply(data, binUDDIChanges)
	if err != nil {
		return nil, 0, 0, false, err
	}
	next = r.uvarint()
	if r.err == nil {
		if r.off >= len(r.b) {
			r.err = fmt.Errorf("uddi: truncated change list")
		} else {
			resync = r.b[r.off] != 0
			r.off++
		}
	}
	epoch = r.uvarint()
	n := r.count()
	if r.err != nil {
		return nil, 0, 0, false, r.err
	}
	for i := 0; i < n; i++ {
		seq := r.uvarint()
		if r.err != nil || r.off >= len(r.b) {
			return nil, 0, 0, false, fmt.Errorf("uddi: truncated change record")
		}
		op := walOpChange(r.b[r.off])
		r.off++
		e := decodeBinEntry(r)
		if r.err != nil {
			return nil, 0, 0, false, r.err
		}
		changes = append(changes, Change{Seq: seq, Op: op, Entry: e})
	}
	return changes, next, epoch, resync, nil
}

// --- server face ---------------------------------------------------------

// BinOptions configures a registry's binary-native face.
type BinOptions struct {
	// OwnHome, when non-empty, makes the face private to that home —
	// the binary twin of the identity middleware's ownOnly policy on
	// /uddi. Foreign callers get E_userMismatch, decoding to
	// service.ErrForbidden exactly like the HTTP face's refusal. An
	// anonymous caller ("") passes: the transport only serves anonymous
	// sessions while the home runs open, when the HTTP face enforces
	// nothing either.
	OwnHome string
	// ReadOnly restricts the face to the inquiry operations, as the
	// /peer XML face is: publication records get E_operatorMismatch.
	ReadOnly bool
	// ViewFor, when set, chooses the caller's entry view (export policy
	// on a peering face). ok=false refuses service entirely — the face
	// exists but is not mounted yet.
	ViewFor func(caller string) (View, bool)
}

// binError renders a protocol-level refusal in the binary encoding with
// the HTTP status its XML twin would carry.
func binError(status int, code, info string) *transport.BinResponse {
	return &transport.BinResponse{Status: status, ContentType: BinContentType,
		Body: encodeBinError(code, info)}
}

// BinHandler returns the registry's binary-native face: UDDI operations
// as compact WAL-style records, dispatched straight onto the store with
// no XML in between. A request with any other content type is refused
// with 415 E_unsupported before it reaches the store.
func (s *Server) BinHandler(opts BinOptions) transport.BinHandler {
	return transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
		if req.ContentType != BinContentType {
			return binError(http.StatusUnsupportedMediaType, "E_unsupported", "binary registry face: unknown content type "+req.ContentType)
		}
		if opts.OwnHome != "" && caller != "" && caller != opts.OwnHome {
			return binError(http.StatusForbidden, "E_userMismatch",
				"identity: this face is private to home "+opts.OwnHome+": "+service.ErrForbidden.Error())
		}
		var view View
		if opts.ViewFor != nil {
			v, ok := opts.ViewFor(caller)
			if !ok {
				return binError(http.StatusNotFound, "E_unsupported", "peering not enabled on this repository")
			}
			view = v
		}
		op, r, err := binReaderFor(req.Body)
		if err != nil {
			return binError(http.StatusBadRequest, "E_fatalError", err.Error())
		}
		if op == binUDDISaveAll || op == binUDDIDelete {
			if opts.ReadOnly {
				return binError(http.StatusForbidden, "E_operatorMismatch", "read-only endpoint")
			}
			if rs := s.replica.Load(); rs != nil {
				return binError(http.StatusMisdirectedRequest, "E_notLeader", notLeaderInfo(rs.leader))
			}
		}
		if op == binUDDIReplWatch || op == binUDDIReplStatus {
			// The replication records serve full entries with their lease
			// deadlines; they belong to the private face only, never behind
			// a peer view or a read-only mount.
			if opts.ReadOnly || opts.ViewFor != nil {
				return binError(http.StatusForbidden, "E_unsupported",
					"replication is private to the repository face")
			}
		}
		switch op {
		case binUDDISaveAll:
			ttl := time.Duration(r.uvarint()) * time.Millisecond
			n := r.count()
			if r.err != nil || n == 0 {
				return binError(http.StatusBadRequest, "E_fatalError", "bad save record")
			}
			entries := make([]Entry, 0, n)
			for i := 0; i < n; i++ {
				entries = append(entries, decodeBinEntry(r))
			}
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			keys := s.SaveAll(entries, ttl)
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinKeys(keys)}
		case binUDDIDelete:
			key := r.str()
			if r.err != nil || key == "" {
				return binError(http.StatusBadRequest, "E_invalidKeyPassed", "delete without serviceKey")
			}
			s.Delete(key)
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinKeys(nil)}
		case binUDDIFind:
			q := Query{Name: r.str(), TModel: r.str()}
			n := r.count()
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", "bad find record")
			}
			if n > 0 {
				q.Categories = make(map[string]string, n)
				for i := 0; i < n; i++ {
					k := r.str()
					q.Categories[k] = r.str()
				}
			}
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			// Journal position read before Find, as in handleFind: the
			// fence clients use against concurrent mutations.
			seq := s.Seq()
			entries := s.Find(q)
			if view != nil {
				kept := entries[:0]
				for _, e := range entries {
					if ve, ok := view(e); ok {
						kept = append(kept, ve)
					}
				}
				entries = kept
			}
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinEntries(seq, entries)}
		case binUDDIGet:
			key := r.str()
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			entry, ok := s.Get(key)
			if ok && view != nil {
				entry, ok = view(entry)
			}
			var entries []Entry
			if ok {
				entries = append(entries, entry)
			}
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinEntries(0, entries)}
		case binUDDIWatch:
			since := r.uvarint()
			timeout := time.Duration(r.uvarint()) * time.Millisecond
			sinceEpoch := r.uvarint()
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			if timeout > maxWatchTimeout {
				timeout = maxWatchTimeout
			}
			changes, next, nextEpoch, resync, err := s.WatchChangesEpoch(ctx, since, sinceEpoch, timeout, false)
			if err != nil {
				// Client went away mid-poll; nothing useful to write.
				return binError(http.StatusRequestTimeout, "E_fatalError", err.Error())
			}
			// A filtered-to-empty round reads as an empty poll, exactly like
			// the XML face: the cursor advances past hidden changes.
			changes, next = cutChanges(changes, next, view)
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinChanges(changes, next, nextEpoch, resync)}
		case binUDDIReplStatus:
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinReplStatus(s.replStatusNow())}
		case binUDDIPage:
			reqEpoch := r.uvarint()
			after := r.str()
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: s.encodeBinPage(reqEpoch, after, pageView(view, opts.ReadOnly))}
		case binUDDIReplWatch:
			since := r.uvarint()
			timeout := time.Duration(r.uvarint()) * time.Millisecond
			reqEpoch := r.uvarint()
			if r.err != nil {
				return binError(http.StatusBadRequest, "E_fatalError", r.err.Error())
			}
			if info, ok := s.replWatchFence(reqEpoch); !ok {
				return binError(http.StatusConflict, "E_staleEpoch", info)
			}
			if timeout > maxWatchTimeout {
				timeout = maxWatchTimeout
			}
			changes, next, _, resync, err := s.WatchChangesEpoch(ctx, since, reqEpoch, timeout, true)
			if err != nil {
				return binError(http.StatusRequestTimeout, "E_fatalError", err.Error())
			}
			changes, next = cutChanges(changes, next, nil)
			epoch, leader := s.Epoch()
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
				Body: encodeBinReplChanges(ReplChanges{Changes: changes, Next: next,
					Resync: resync, Epoch: epoch, Leader: leader})}
		}
		return binError(http.StatusBadRequest, "E_unsupported", fmt.Sprintf("unknown binary request %q", op))
	})
}
