// serve.go is the registry's one dispatch. Both wires decode into the
// same typed request — the XML codec from a document POSTed over HTTP
// (xmlface.go), the binary codec from a binuddi record inside an HCB1
// frame (bincodec.go) — and serve applies every policy rule of the face
// once, runs the operation and returns one typed reply for the codec to
// encode. Only decoding and encoding are per wire; keeping the policy
// apart from the mechanism that carries it is what keeps the two wires
// from drifting apart.
package uddi

import (
	"context"
	"net/http"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/service"
)

// Face is one mount of the registry: the policy both wire codecs serve
// it under. The zero Face is the private repository face of an open home.
type Face struct {
	// OwnHome, when non-empty, makes the face private to that home:
	// foreign callers get E_userMismatch (service.ErrForbidden). An
	// anonymous caller ("") passes: callers are anonymous only while the
	// home runs open, when no face enforces anything.
	OwnHome string
	// ReadOnly restricts the face to the inquiry operations, as a peering
	// face is: publication gets E_operatorMismatch.
	ReadOnly bool
	// ViewFor, when set, chooses the caller's entry view (export policy
	// on a peering face). ok=false refuses service entirely with 404
	// E_unsupported — the face exists but is not mounted yet.
	ViewFor func(caller string) (View, bool)
}

// View rewrites or suppresses registry entries served to one consumer
// class. It receives each outbound entry (for delete/expire journal
// records, an identity-only entry carrying just Key and Name) and returns
// the entry to serve, or ok=false to hide it from this consumer entirely.
// Views apply to inquiries, state pages and the change watch alike, so a
// consumer behind a view sees one consistent, filtered registry. A view
// that rewrites an entry must Clone it first: the argument may share
// storage (the category map in particular) with the registry's own
// records.
type View func(Entry) (Entry, bool)

// opKind is a registry operation.
type opKind uint8

const (
	opInvalid opKind = iota // the request did not decode far enough to name one
	opSave
	opDelete
	opFind
	opGet
	opWatch
	opPage
	opReplStatus
	opReplWatch
)

// failure is a refusal: the HTTP status, dispositionReport errCode and
// errInfo, which the binary wire carries in its error record.
type failure struct {
	status     int
	code, info string
}

// request is one registry operation as either codec decodes it.
type request struct {
	op opKind
	// name is the operation's XML element name, which refusals quote.
	name string
	// fail is the decode error, if any. With op opInvalid nothing else
	// decoded; otherwise the operation is known but its arguments are not.
	fail *failure

	entries []Entry       // save
	ttl     time.Duration // save
	key     string        // delete, get
	query   Query         // find
	// since and epoch are the cursor and its regime (watch, repl_watch);
	// epoch is also the requester's own epoch (state_page).
	since, epoch uint64
	timeout      time.Duration // watch, repl_watch
	after        string        // state_page
}

// reply is the outcome of one request: what serve hands a codec to
// encode by the request's op, and what a client decodes from either
// wire. A refusal sets fail and nothing else.
type reply struct {
	fail *failure

	keys    []string // save
	seq     uint64   // find: the journal position read before the scan
	entries []Entry  // find, get: already through the caller's view

	// watch, repl_watch: the journal batch. Served, it is not yet through
	// view nor cut to size — each codec cuts by its own encoded bytes
	// (see batch).
	changes     []Change
	next, epoch uint64
	resync      bool
	leader      string // repl_watch
	view        View   // served watch and state_page entry filter
	// page is a state page: served, only the header serve read, for the
	// codec to walk the entries keyed after `after` into; decoded, the
	// whole page.
	page   Page
	after  string
	status ReplStatus // repl_status
}

func refuse(status int, code, info string) reply {
	return reply{fail: &failure{status: status, code: code, info: info}}
}

// serve applies face f's policy to one decoded request from caller and
// runs it. Face-level refusals come first, then decode errors of the
// envelope, then the operation's own policy, then its argument errors.
func (s *Server) serve(ctx context.Context, f *Face, caller string, req *request) reply {
	if f.OwnHome != "" && caller != "" && caller != f.OwnHome {
		s.auditEvent(audit.Event{Type: audit.PolicyDeny, Caller: caller,
			Detail: "registry face is private to home " + f.OwnHome})
		return refuse(http.StatusForbidden, "E_userMismatch",
			"identity: this face is private to home "+f.OwnHome+": "+service.ErrForbidden.Error())
	}
	var view View
	if f.ViewFor != nil {
		v, ok := f.ViewFor(caller)
		if !ok {
			return refuse(http.StatusNotFound, "E_unsupported", "peering not enabled on this repository")
		}
		view = v
	}
	if req.op == opInvalid {
		return reply{fail: req.fail}
	}
	switch req.op {
	case opSave, opDelete:
		if f.ReadOnly {
			return refuse(http.StatusForbidden, "E_operatorMismatch", "read-only endpoint: "+req.name)
		}
		// A replica names its leader, so resolver-aware clients re-pin.
		if rs := s.replica.Load(); rs != nil {
			return refuse(http.StatusMisdirectedRequest, "E_notLeader", notLeaderInfo(rs.leader))
		}
	case opReplStatus, opReplWatch:
		// The replication operations serve full entries with their lease
		// deadlines; they belong to the private face only, never behind a
		// peer view or a read-only mount.
		if f.ReadOnly || f.ViewFor != nil {
			return refuse(http.StatusForbidden, "E_unsupported",
				"replication is private to the repository face: "+req.name)
		}
	}
	if req.fail != nil {
		return reply{fail: req.fail}
	}
	timeout := min(req.timeout, maxWatchTimeout)
	switch req.op {
	case opSave:
		if len(req.entries) == 0 {
			return refuse(http.StatusBadRequest, "E_fatalError", req.name+" without service")
		}
		for i := range req.entries {
			if req.entries[i].Name == "" {
				return refuse(http.StatusBadRequest, "E_fatalError", "uddi: service without name")
			}
		}
		return reply{keys: s.saveDecoded(req.entries, req.ttl)}
	case opDelete:
		if req.key == "" {
			return refuse(http.StatusBadRequest, "E_invalidKeyPassed", req.name+" without serviceKey")
		}
		s.Delete(req.key)
		return reply{}
	case opFind:
		// Journal position read before Find: any change Find might have
		// missed has a higher sequence number, so clients can fence cache
		// fills against concurrent mutations.
		rep := reply{seq: s.Seq(), entries: s.Find(req.query)}
		if view != nil {
			kept := rep.entries[:0]
			for _, e := range rep.entries {
				if ve, ok := view(e); ok {
					kept = append(kept, ve)
				}
			}
			rep.entries = kept
		}
		return rep
	case opGet:
		e, ok := s.Get(req.key)
		if ok && view != nil {
			e, ok = view(e)
		}
		if !ok {
			return reply{}
		}
		return reply{entries: []Entry{e}}
	case opWatch:
		// A view can hide or shrink entries, so the batch a codec cuts
		// after it may reach past the bound on the raw changes: a watch
		// behind a view reads the whole tail.
		limit := pageBytes
		if view != nil {
			limit = 0
		}
		changes, next, epoch, resync, err := s.watchChangesEpoch(ctx, req.since, req.epoch, timeout, false, limit)
		if err != nil {
			// The caller went away mid-poll.
			return refuse(http.StatusRequestTimeout, "E_fatalError", err.Error())
		}
		return reply{changes: changes, next: next, epoch: epoch, resync: resync, view: view}
	case opPage:
		view = pageView(view, f.ReadOnly)
		return reply{page: s.pageHeader(req.epoch, view == nil), after: req.after, view: view}
	case opReplStatus:
		return reply{status: s.replStatusNow()}
	case opReplWatch:
		if info, ok := s.replWatchFence(req.epoch); !ok {
			return refuse(http.StatusConflict, "E_staleEpoch", info)
		}
		changes, next, _, resync, err := s.WatchChangesEpoch(ctx, req.since, req.epoch, timeout, true)
		if err != nil {
			return refuse(http.StatusRequestTimeout, "E_fatalError", err.Error())
		}
		epoch, leader := s.Epoch()
		return reply{changes: changes, next: next, epoch: epoch, resync: resync, leader: leader}
	}
	return refuse(http.StatusBadRequest, "E_unsupported", "unknown request "+req.name)
}

// pageView is the entry filter a page request is served through: view
// on a peer face, the identity on a read-only one, nil (no filter, and
// leases served) on the private repository face.
func pageView(view View, readOnly bool) View {
	if view == nil && readOnly {
		return func(e Entry) (Entry, bool) { return e, true }
	}
	return view
}

// batch hands put the reply's changes the caller may see — each passed
// through the view and rewritten by it — until put reports the batch
// full, and returns the cursor to resume from: next when every change
// was offered, else the seq of the last one put. A filtered-to-empty
// round reads as an empty poll: the cursor still advances past hidden
// changes. A short batch is legal under the cursor contract: the watcher
// resumes from the cursor and gets the rest.
func (rep *reply) batch(put func(c Change) (full bool)) uint64 {
	for _, c := range rep.changes {
		if rep.view != nil {
			ve, ok := rep.view(c.Entry)
			if !ok {
				continue
			}
			c.Entry = ve
			if c.Op == OpDelete || c.Op == OpExpire {
				// Invalidation carries identity, not payload, on either
				// wire: drop whatever the view stamped on.
				c.Entry = Entry{Key: ve.Key, Name: ve.Name}
			}
		}
		if put(c) {
			return c.Seq
		}
	}
	return rep.next
}
