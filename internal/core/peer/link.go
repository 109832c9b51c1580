// The import side of a Peering: one Link per remote home, consuming the
// remote repository's change watch and mirroring admitted entries into
// the local registry under home-scoped IDs.
package peer

import (
	"context"
	"errors"
	"sync"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

// Status is one link's replication condition — the peering counterpart of
// vsg.Health. Connected false is degraded mode: entries already imported
// keep serving until their TTL lapses, after which the remote home's
// services vanish locally until the link recovers and resynchronizes.
type Status struct {
	// URL is the remote export endpoint this link replicates from.
	URL string `json:"url"`
	// RemoteHome is the peer's home name as stamped on its exports;
	// empty until the first entry has been imported.
	RemoteHome string `json:"remote_home,omitempty"`
	// Connected reports a live watch stream against the peer.
	Connected bool `json:"connected"`
	// Authenticated reports that the live stream is mutually
	// authenticated: this home's identity signed every request and the
	// peer's response signatures verified against the trust store. False
	// while Connected means the homes run in open mode (no identity).
	Authenticated bool `json:"authenticated"`
	// LastError is the failure that broke the stream, cleared on
	// recovery. Authentication refusals land here too — a peer that does
	// not trust this home reports uddi: E_authTokenRequired, a peer this
	// home does not trust fails response verification.
	LastError string `json:"last_error,omitempty"`
	// Cursor is the replication cursor: the highest remote journal
	// sequence number applied locally.
	Cursor uint64 `json:"cursor"`
	// CursorEpoch is the replication epoch the cursor was handed out
	// under (0 until the remote states one). Across a remote leader
	// failover, presenting it lets the promoted replica replay shared
	// history for this cursor instead of demanding a full resync.
	CursorEpoch uint64 `json:"cursor_epoch,omitempty"`
	// Imported counts remote entries currently registered locally.
	Imported int `json:"imported"`
	// Applied counts change deltas applied since the link started.
	Applied uint64 `json:"applied"`
	// LastSync is the time of the last successful full reconciliation
	// (performed on first contact, on resync, and periodically as
	// anti-entropy).
	LastSync time.Time `json:"last_sync"`
	// Resyncs counts the times the remote declared our cursor
	// unserviceable (journal overrun, or a non-durable peer restarting
	// from sequence zero) and forced a full-snapshot resync. A durable
	// peer restarting with its WAL intact does not bump this: the cursor
	// resumes where it left off.
	Resyncs uint64 `json:"resyncs"`
	// Proto is the wire protocol the link's traffic currently rides:
	// "binary" once the peer has negotiated the session-keyed fast path,
	// "soap" otherwise (never negotiated, refused, or downgraded).
	Proto string `json:"proto,omitempty"`
}

// Link replicates one remote home's registry into the local one.
type Link struct {
	p      *Peering
	url    string
	remote *vsr.VSR
	// follow owns the cursor, grounds through Reconcile and feeds apply:
	// Run on a background link, Pull on a manual one (PeerManual), whose
	// owner drives it.
	follow *vsr.Follower
	ctx    context.Context // cancelled by stop
	cancel context.CancelFunc
	done   chan struct{}

	// syncMu keeps delta application and snapshot reconciles, which run
	// on different goroutines of a background link, from interleaving.
	syncMu sync.Mutex

	mu sync.Mutex
	st Status // Cursor and CursorEpoch come from follow
	// stopped marks a link the peering has detached. Replication calls
	// arriving afterwards — an anti-entropy refresh racing an Unpeer, a
	// simulation event scheduled before the unpeer landed — must not
	// write into the registry the withdrawal just cleaned.
	stopped bool
	// imported maps the remote-local service ID to the local registry key
	// of its scoped copy, so delete/expire deltas — which carry only the
	// remote ID — find what to withdraw.
	imported map[string]string
}

func newLink(p *Peering, urls []string) *Link {
	url := urls[0]
	remote := vsr.NewSet(urls...)
	// Every wire op the link issues — watch rounds, snapshot reconciles —
	// rides the peering's dialer: the binary fast path once the peer has
	// negotiated a session (anonymous in open mode), SOAP/HTTP otherwise
	// — signed once the home has an identity, plain over the underlying
	// transport (shared TCP, or an injected MemNet) before.
	remote.SetDialer(p.dialer)
	ctx, cancel := context.WithCancel(context.Background())
	l := &Link{
		p:        p,
		url:      url,
		remote:   remote,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		st:       Status{URL: url},
		imported: make(map[string]string),
	}
	l.follow = remote.Follow(l.Reconcile, l.apply)
	return l
}

// Status returns a snapshot of the link's condition.
func (l *Link) Status() Status {
	cursor, epoch := l.follow.Cursor()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.Cursor, st.CursorEpoch = cursor, epoch
	st.Imported = len(l.imported)
	st.Proto = l.p.dialer.ProtocolFor(l.url)
	if st.Proto == "" && st.Connected {
		st.Proto = "soap"
	}
	return st
}

func (l *Link) start() { go l.run() }

// stop halts the link; withdraw additionally deletes everything it
// imported (Unpeer wants the registry clean, Close leaves entries to
// their TTL).
func (l *Link) stop(withdraw bool) {
	l.cancel()
	<-l.done
	l.mu.Lock()
	l.stopped = true
	if !withdraw {
		l.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(l.imported))
	for _, key := range l.imported {
		keys = append(keys, key)
	}
	l.imported = make(map[string]string)
	l.mu.Unlock()
	for _, key := range keys {
		l.p.reg.Delete(key)
	}
}

// run drives a background link: the follower applies the remote watch
// while this goroutine runs the periodic reconcile (anti-entropy), which
// refreshes imported TTLs even when the remote journal is quiet and
// repairs divergence without waiting for a resync.
func (l *Link) run() {
	watching := make(chan struct{})
	go func() {
		defer close(watching)
		l.follow.Run(l.ctx)
	}()
	defer func() { <-watching; close(l.done) }()
	refresh := l.p.clock.NewTimer(l.refreshInterval())
	defer refresh.Stop()
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-refresh.C():
			l.mu.Lock()
			up := l.st.Connected
			l.mu.Unlock()
			if up {
				l.Reconcile(l.ctx)
			}
			// Re-arm from the current TTL so a SetImportTTL after Peer
			// keeps refresh cadence and entry lifetime coherent.
			refresh.Reset(l.refreshInterval())
		}
	}
}

// refreshInterval is the anti-entropy cadence: imported entries must be
// re-saved well inside their TTL, mirroring the gateways' TTL/3 refresh.
func (l *Link) refreshInterval() time.Duration {
	interval := l.p.ImportTTL() / 3
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	return interval
}

// apply folds one watch delta into the local registry: the link's
// policy on top of the follower's mechanism. The follower reconciles
// (Reconcile) before its first round and after every Resync; change
// deltas apply incrementally.
func (l *Link) apply(d vsr.Delta) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	switch d.Op {
	case vsr.DeltaUp:
		l.mu.Lock()
		wasUp := l.st.Connected
		remote := l.st.RemoteHome
		l.st.Connected = true
		l.st.Authenticated = l.p.auth.Enabled()
		l.st.LastError = ""
		l.mu.Unlock()
		if !wasUp {
			detail := "open mode"
			if l.p.auth.Enabled() {
				detail = "mutually authenticated"
			}
			l.p.record(audit.Event{Type: audit.PeerConnect, Caller: remote,
				Detail: l.url + ": " + detail})
		}
	case vsr.DeltaDown:
		l.mu.Lock()
		wasUp := l.st.Connected
		remote := l.st.RemoteHome
		l.st.Connected = false
		l.st.Authenticated = false
		if d.Err != nil {
			l.st.LastError = d.Err.Error()
		}
		l.mu.Unlock()
		if wasUp {
			detail := l.url
			if d.Err != nil {
				detail += ": " + d.Err.Error()
			}
			l.p.record(audit.Event{Type: audit.PeerDisconnect, Caller: remote, Detail: detail})
		}
	case vsr.DeltaResync:
		l.mu.Lock()
		l.st.Resyncs++
		l.mu.Unlock()
	case vsr.DeltaAdd, vsr.DeltaUpdate:
		l.upsert(d.Remote)
		l.mu.Lock()
		l.st.Applied++
		l.mu.Unlock()
	case vsr.DeltaDelete, vsr.DeltaExpire:
		l.drop(d.ServiceID)
		l.mu.Lock()
		l.st.Applied++
		l.mu.Unlock()
	}
}

// upsert registers (or refreshes) the scoped copy of one remote service.
func (l *Link) upsert(r vsr.Remote) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	origin := r.Desc.Context[service.CtxHome]
	switch {
	case origin == "":
		// Unstamped: the endpoint is not a peering export face (or
		// predates one). Without a scope the entry cannot be filed.
		return
	case origin == l.p.home:
		// Our own name coming back at us — a peering loop or a
		// misconfigured remote. Importing it would shadow local services.
		return
	case r.Desc.Context[service.CtxPeerOrigin] != "":
		// A transit entry the remote should not have exported; the
		// one-hop rule holds on both sides.
		return
	}
	if _, _, scoped := service.SplitScopedID(r.Desc.ID); scoped {
		return
	}
	localID := r.Desc.ID
	desc := r.Desc.Clone()
	desc.ID = service.ScopeID(origin, localID)
	desc.Context[service.CtxPeerOrigin] = origin
	entry, err := vsr.EntryFor(desc, r.Endpoint)
	if err != nil {
		return
	}
	l.p.reg.Save(entry, l.p.ImportTTL())
	l.mu.Lock()
	if l.st.RemoteHome == "" {
		l.st.RemoteHome = origin
	}
	l.imported[localID] = entry.Key
	l.mu.Unlock()
}

// drop withdraws the scoped copy of one remote service.
func (l *Link) drop(remoteID string) {
	l.mu.Lock()
	key, ok := l.imported[remoteID]
	if ok {
		delete(l.imported, remoteID)
	}
	l.mu.Unlock()
	if ok {
		l.p.reg.Delete(key)
	}
}

// Reconcile replaces incremental state with ground truth: a walk over
// the remote export face's pages, upserted entry by entry, followed —
// only after the last page — by the withdrawal of anything imported
// earlier that no page contained. It returns the journal position of
// the first page, every page having been read at or after it. It is the
// link's ground function (vsr.Follow): the follower calls it before its
// first round and on every resync, and resumes after that position; a
// reconnect resumes from the cursor instead, so a durable peer's restart
// costs only the journal tail. As anti-entropy — scheduled by the
// background link, called by a manual link's owner — it leaves the
// cursor alone: a round in flight may still deliver older deltas, and
// replaying them in journal order converges on the same state. A walk
// that fails withdraws nothing: imports keep serving until TTL, the
// degraded mode a broken watch causes.
func (l *Link) Reconcile(ctx context.Context) (seq uint64, err error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return 0, errStopped
	}
	l.mu.Unlock()
	seen := make(map[string]bool)
	seq, err = l.remote.Walk(ctx, func(r vsr.Remote) {
		l.upsert(r)
		seen[r.Desc.ID] = true
	})
	if err != nil {
		l.mu.Lock()
		l.st.LastError = err.Error()
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Lock()
	var stale []string
	for remoteID, key := range l.imported {
		if !seen[remoteID] {
			stale = append(stale, key)
			delete(l.imported, remoteID)
		}
	}
	l.st.LastSync = l.p.clock.Now()
	l.mu.Unlock()
	for _, key := range stale {
		l.p.reg.Delete(key)
	}
	return seq, nil
}

// errStopped is a replication call on a link the peering has detached.
var errStopped = errors.New("peer: link stopped")

// Pull drives one synchronous replication round on a manual link: a
// single immediate watch probe against the remote export face, through
// the same follower and callback the background link runs. The returned
// error is the transport failure, if any; link status degrades the same
// way a broken watch stream would.
func (l *Link) Pull(ctx context.Context) error {
	l.mu.Lock()
	stopped := l.stopped
	l.mu.Unlock()
	if stopped {
		return nil
	}
	return l.follow.Step(ctx, 0)
}
