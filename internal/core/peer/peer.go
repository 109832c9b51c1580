// Package peer federates homes: it connects one home's Virtual Service
// Repository to the repositories of other homes, so services registered
// in one residence become resolvable — and callable, through the ordinary
// gateway wire path — from another. The paper's framework stops at a
// single home (§6 names wide-area access as future work); this package
// opens that scenario class without any new wire protocol: peers
// replicate over the same UDDI operations gateways already speak.
//
// Each home runs one Peering next to its repository. It has two faces:
//
//   - Export: a per-caller uddi.View (mounted by vsr.Server.MountPeer on
//     the read-only /peer face) through which other homes see this home's
//     registry filtered by an export Policy and stamped with the home's
//     name. Entries that were themselves imported from a peer are never
//     re-exported, keeping federation one-hop.
//   - Import: one Link per remote peer, a vsr.Follower consumer of the
//     remote's export face. The remote journal's sequence number is the
//     replication cursor; every admitted change is re-registered in the
//     local registry under a home-scoped ID ("home-a/jini:laserdisc-1")
//     with the original gateway endpoint, so local gateways resolve and
//     call remote services exactly like local ones — over the wire.
//
// Failure behaviour mirrors the in-home watch subsystem: while a link is
// up, remote changes land within one watch round trip; when a peer goes
// dark, imported registrations simply stop being refreshed and lapse by
// TTL — the same degraded mode a gateway's resolve cache falls into when
// its repository watch drops.
//
// When the home has an identity (internal/core/identity), the peering
// carries the trust boundary: the export face serves only authenticated,
// trusted homes — each seeing just what the export policy and the
// per-caller service ACL admit — and every import link signs its watch
// and snapshot requests while verifying the remote's response
// signatures, so an untrusted party can neither read this home's
// registry nor feed it entries. Link status surfaces the authentication
// state alongside connectivity.
package peer

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/vclock"
)

// Policy is a home's export policy: which local services other homes may
// see. Patterns use events.TopicMatches semantics — exact match, the
// universal "*" (or empty), and "prefix*" wildcards — applied to the
// federation service ID, e.g. "havi:*" or "x10:lamp-1". It lives in the
// identity package with the rest of the boundary-policy surface; the
// alias keeps the peering API self-contained.
type Policy = identity.Policy

// Peering is one home's federation endpoint: the export face other homes
// replicate from, plus the import links this home runs against its peers.
type Peering struct {
	home  string
	reg   *uddi.Server
	auth  *identity.Auth
	clock vclock.Clock
	// dialer owns link credentials, per-peer protocol negotiation and
	// the wire settings (SetTransport, SetBinaryEnabled): watch rounds
	// and reconciles ride the binary fast path to peers that negotiate
	// it and signed HTTP to the rest. Every link shares it.
	dialer *transport.Dialer

	mu        sync.Mutex
	importTTL time.Duration
	links     map[string]*Link
	closed    bool

	// recorder, when set, receives link up/down events and per-caller
	// export denials.
	recorder atomic.Pointer[audit.Recorder]

	// denySeen dedups view-denial audit events: the export face is
	// re-filtered on every watch round, so an unchanged refusal would
	// otherwise flood the log once per poll. Keyed caller/service/pattern;
	// bounded, cleared wholesale when full (re-recording a stale denial is
	// harmless, missing a new one is not).
	denyMu   sync.Mutex
	denySeen map[string]struct{}
}

// denySeenLimit bounds the view-denial dedup cache.
const denySeenLimit = 4096

// New builds the peering layer for a home. home names this residence in
// every other home's ID space (imported services appear there as
// "<home>/<id>"); registry is the home's own UDDI store, written
// in-process by import links and served through the export face; auth is
// the home's authentication context — it owns the export policy and
// service ACL, and its identity (when installed) signs link traffic. A
// nil auth gets a private open-mode context, the pre-identity behaviour.
func New(home string, registry *uddi.Server, auth *identity.Auth) (*Peering, error) {
	if home == "" {
		return nil, fmt.Errorf("peer: a home must be named to federate (see NewHomeFederation)")
	}
	if strings.Contains(home, service.ScopeSep) {
		// A separator inside the scope would make scoped IDs ambiguous.
		return nil, fmt.Errorf("peer: home name %q must not contain %q", home, service.ScopeSep)
	}
	if auth == nil {
		auth = identity.NewAuth(home)
	} else if auth.Home() != home {
		return nil, fmt.Errorf("peer: auth context names home %q, want %q", auth.Home(), home)
	}
	return &Peering{
		home:      home,
		reg:       registry,
		auth:      auth,
		clock:     vclock.System,
		dialer:    transport.NewDialer(auth),
		importTTL: vsr.DefaultTTL,
		links:     make(map[string]*Link),
		denySeen:  make(map[string]struct{}),
	}, nil
}

// SetClock overrides the peering's time source — the anti-entropy
// refresh timer and link sync timestamps. Call before the first Peer;
// tests and the deterministic simulation install a vclock.Virtual.
func (p *Peering) SetClock(c vclock.Clock) {
	if c != nil {
		p.clock = c
	}
}

// SetTransport routes the links' wire traffic through rt instead of the
// shared TCP transport; signing and verification still apply on top.
// The simulation passes its transport.MemNet here. Call before Peer.
func (p *Peering) SetTransport(rt http.RoundTripper) { p.dialer.Transport = rt }

// SetBinaryEnabled turns the binary fast path off (or back on) for this
// home's import links; disabled, every round rides signed SOAP/HTTP.
// Call alongside SetTransport, before Peer.
func (p *Peering) SetBinaryEnabled(on bool) { p.dialer.SetBinary(on) }

// WireStats reports per-peer link protocol state (see
// transport.WireStats); empty before the first link.
func (p *Peering) WireStats() transport.WireStats {
	return p.dialer.WireStatsSnapshot()
}

// SetRecorder installs the audit recorder peering decisions are reported
// to; nil turns recording off.
func (p *Peering) SetRecorder(r audit.Recorder) {
	if r == nil {
		p.recorder.Store(nil)
		return
	}
	p.recorder.Store(&r)
}

// record emits an audit event if a recorder is installed, stamping this
// home as the decider.
func (p *Peering) record(ev audit.Event) {
	rp := p.recorder.Load()
	if rp == nil {
		return
	}
	if ev.Home == "" {
		ev.Home = p.home
	}
	(*rp).Record(ev)
}

// recordViewDeny audits one caller being refused one service at the
// export face — once per distinct caller/service/pattern, not once per
// watch round. Open-mode filtering and the home's own view are not
// denials and are not recorded.
func (p *Peering) recordViewDeny(caller, serviceID, pattern, layer string) {
	if !p.auth.Enabled() || caller == "" || caller == p.home {
		return
	}
	if p.recorder.Load() == nil {
		return
	}
	key := caller + "\x00" + serviceID + "\x00" + pattern + "\x00" + layer
	p.denyMu.Lock()
	if _, dup := p.denySeen[key]; dup {
		p.denyMu.Unlock()
		return
	}
	if len(p.denySeen) >= denySeenLimit {
		p.denySeen = make(map[string]struct{})
	}
	p.denySeen[key] = struct{}{}
	p.denyMu.Unlock()
	why := layer + ": "
	if pattern != "" {
		why += fmt.Sprintf("deny pattern %q", pattern)
	} else {
		why += "no allow rule matches"
	}
	p.record(audit.Event{
		Type: audit.PolicyDeny, Caller: caller, Service: serviceID,
		Pattern: pattern, Detail: "export view: " + why,
	})
}

// Home returns this home's federation name.
func (p *Peering) Home() string { return p.home }

// SetPolicy installs the export policy. It applies to every subsequent
// export-face response, including watch rounds already parked.
func (p *Peering) SetPolicy(pol Policy) { p.auth.SetExportPolicy(pol) }

// Policy returns the current export policy.
func (p *Peering) Policy() Policy { return p.auth.ExportPolicy() }

// Auth returns the peering's authentication context.
func (p *Peering) Auth() *identity.Auth { return p.auth }

// SetImportTTL overrides the registration lifetime of imported entries
// (default vsr.DefaultTTL). It is the staleness bound of peer-outage
// degraded mode: when a peer goes dark, its services survive locally for
// at most this long. Set it before the first Peer call.
func (p *Peering) SetImportTTL(d time.Duration) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	p.importTTL = d
	p.mu.Unlock()
}

// ImportTTL returns the imported-entry registration lifetime.
func (p *Peering) ImportTTL() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.importTTL
}

// ExportView returns one caller's export view: the home's registry
// through the export policy — and, for an authenticated caller, that
// caller's service-ACL slice of it — with each entry stamped with this
// home's name so importers know its scope. Mount it with
// vsr.Server.MountPeer, which serves it on both wires of the /peer face
// (behind the server's auth, which supplies the caller).
func (p *Peering) ExportView(caller string) uddi.View {
	return func(e uddi.Entry) (uddi.Entry, bool) { return p.exportEntry(caller, e) }
}

// exportEntry is the per-caller uddi.View behind ExportView. caller
// is the authenticated peer home, or "" on an open (identity-less)
// deployment.
func (p *Peering) exportEntry(caller string, e uddi.Entry) (uddi.Entry, bool) {
	// Never re-export an import: one-hop federation. Imported entries are
	// recognizable by their scoped name alone, which also covers
	// identity-only delete/expire journal records that carry no
	// categories.
	if _, _, scoped := service.SplitScopedID(e.Name); scoped {
		return uddi.Entry{}, false
	}
	if e.Categories[service.CtxPeerOrigin] != "" {
		return uddi.Entry{}, false
	}
	if admit, pattern := p.auth.ExportDecide(e.Name); !admit {
		p.recordViewDeny(caller, e.Name, pattern, "export policy")
		return uddi.Entry{}, false
	}
	// The ACL refines visibility per authenticated caller; it cannot
	// apply on an open deployment (no caller identity to match) and never
	// applies to the home itself.
	if p.auth.Enabled() && caller != p.home {
		if admit, rule := p.auth.ACLDecide(caller, e.Name); !admit {
			p.recordViewDeny(caller, e.Name, rule, "service ACL")
			return uddi.Entry{}, false
		}
	}
	e = e.Clone()
	if e.Categories == nil {
		e.Categories = make(map[string]string)
	}
	// The stamp is authoritative: whatever a publisher claimed, entries
	// served here belong to this home.
	e.Categories[service.CtxHome] = p.home
	return e, true
}

// Peer starts replicating from a remote home's export endpoint (its
// vsr.Server.PeerURL). The returned Link is already running; its Status
// reports connectivity and the replication cursor.
func (p *Peering) Peer(url string) (*Link, error) {
	return p.addLink([]string{url}, false)
}

// PeerSet is Peer against a replicated repository: the link walks the
// ordered endpoint list with error-driven failover, so when the pinned
// endpoint dies it resumes its watch — cursor intact, because leader
// sequence numbers survive promotion — against a surviving replica. The
// link is keyed by the first URL.
func (p *Peering) PeerSet(urls ...string) (*Link, error) {
	return p.addLink(urls, false)
}

// PeerManual attaches a link with no background goroutine: nothing
// replicates until the caller drives it with Link.Pull (one synchronous
// watch round) and Link.Reconcile (one snapshot reconciliation). The
// deterministic simulation uses this so every replication round happens
// exactly when its event loop schedules one; the state machine is the
// same one the background link runs.
func (p *Peering) PeerManual(url string) (*Link, error) {
	return p.addLink([]string{url}, true)
}

// PeerManualSet is PeerManual over a replica-set endpoint list — the
// manually driven twin of PeerSet, for the deterministic simulation's
// failover scenarios.
func (p *Peering) PeerManualSet(urls ...string) (*Link, error) {
	return p.addLink(urls, true)
}

func (p *Peering) addLink(urls []string, manual bool) (*Link, error) {
	if len(urls) == 0 || urls[0] == "" {
		return nil, fmt.Errorf("peer: empty peer URL")
	}
	url := urls[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("peer: peering closed")
	}
	if _, dup := p.links[url]; dup {
		return nil, fmt.Errorf("peer: already peered with %s", url)
	}
	l := newLink(p, urls)
	if manual {
		close(l.done) // no run loop for stop to wait on
		p.links[url] = l
		return l, nil
	}
	p.links[url] = l
	l.start()
	return l, nil
}

// Unpeer stops replication from a peer and withdraws every entry imported
// from it.
func (p *Peering) Unpeer(url string) error {
	p.mu.Lock()
	l, ok := p.links[url]
	if ok {
		delete(p.links, url)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("peer: not peered with %s", url)
	}
	l.stop(true)
	return nil
}

// Status reports every link keyed by peer URL.
func (p *Peering) Status() map[string]Status {
	p.mu.Lock()
	links := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	out := make(map[string]Status, len(links))
	for _, l := range links {
		st := l.Status()
		out[st.URL] = st
	}
	return out
}

// Close stops every link. Imported entries are left to expire by TTL —
// on shutdown there is no point churning the registry a closing
// federation is about to discard.
func (p *Peering) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	links := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		links = append(links, l)
	}
	p.links = make(map[string]*Link)
	p.mu.Unlock()
	for _, l := range links {
		l.stop(false)
	}
	p.dialer.Close()
}
