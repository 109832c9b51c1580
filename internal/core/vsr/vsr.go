// Package vsr implements the Virtual Service Repository (§3.3): "a
// virtual database which has a lot of information of heterogeneous
// services such as service locations and service contexts." Following the
// prototype (§4.1), it is built from WSDL (interface descriptions) and a
// UDDI-style registry (locations and contexts): each federation service
// is published as a UDDI entry whose inline WSDL document carries the
// interface and whose category bag carries the service context.
//
// Beyond the paper, the repository is an active component: Watch streams
// registry changes (add/update/delete/expire deltas) to gateways over a
// long-poll journal, so resolution caches are kept current by push
// instead of guessing with a TTL (Walk grounds them in the registry's
// state first), and RegisterAll renews a gateway's whole export set in
// one round trip.
package vsr

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
	"homeconnect/internal/wsdl"
)

// Category keys the VSR adds to each UDDI entry beyond the service's own
// context attributes.
const (
	catMiddleware = "homeconnect.middleware"
	catServiceID  = "homeconnect.id"
)

// DefaultTTL is the registration lifetime; publishers refresh at a
// fraction of it.
const DefaultTTL = 30 * time.Second

// Remote is one discovered service: its description plus the VSG endpoint
// that serves it.
type Remote struct {
	Desc service.Description
	// Endpoint is the SOAP URL of the owning Virtual Service Gateway.
	Endpoint string
}

// Query selects services in the repository.
type Query struct {
	// ID, if set, matches the exact federation service ID.
	ID string
	// Middleware, if set, matches the native middleware name.
	Middleware string
	// Interface, if set, matches the interface (tModel) name.
	Interface string
	// Context entries must all match the service context.
	Context map[string]string
}

// VSR is a client handle on the repository.
type VSR struct {
	client *uddi.Client
	ttl    time.Duration
}

// New returns a VSR client against the given registry URL. It rides the
// process-wide open dialer (transport.OpenDialer): the binary fast path
// over an anonymous session where the registry offers one, SOAP/HTTP
// otherwise. SetDialer replaces it.
func New(url string) *VSR {
	return &VSR{client: &uddi.Client{URL: url, Dialer: transport.OpenDialer()}, ttl: DefaultTTL}
}

// NewSet returns a VSR client against a replicated registry: an ordered
// endpoint list walked by error-driven failover. Writes follow the
// E_notLeader redirect to wherever the leader currently is; reads are
// answered by whichever endpoint is pinned. With one URL it behaves
// exactly like New.
func NewSet(urls ...string) *VSR {
	if len(urls) == 1 {
		return New(urls[0])
	}
	return &VSR{
		client: &uddi.Client{Resolver: transport.NewResolver(urls...), Dialer: transport.OpenDialer()},
		ttl:    DefaultTTL,
	}
}

// SetDialer routes repository traffic through a transport.Dialer, which
// owns credentials and protocol negotiation: requests ride the binary
// fast path once the registry's authority has negotiated it and fall
// back to signed HTTP otherwise. Call before the first request.
func (v *VSR) SetDialer(d *transport.Dialer) {
	v.client.Dialer = d
}

// TTL returns the registration lifetime used by Register.
func (v *VSR) TTL() time.Duration { return v.ttl }

// SetTTL overrides the registration lifetime (tests and benchmarks).
func (v *VSR) SetTTL(d time.Duration) {
	if d > 0 {
		v.ttl = d
	}
}

// EntryFor builds the UDDI entry advertising desc at endpoint: the
// repository representation Register publishes. It is exported for the
// inter-home peering layer (internal/core/peer), which re-registers
// remote descriptions under home-scoped IDs without an HTTP round trip.
//
// As in UDDI, the interface and the address are separate parts of the
// record: the WSDL is the interface's document with no soap:address, the
// same text for every service of that interface, and the endpoint is the
// entry's AccessPoint. So a registry's decoders keep one copy of each
// interface's document, however many services publish it.
func EntryFor(desc service.Description, endpoint string) (uddi.Entry, error) {
	if err := desc.Validate(); err != nil {
		return uddi.Entry{}, err
	}
	doc, err := wsdl.Generate(desc.Interface, "")
	if err != nil {
		return uddi.Entry{}, fmt.Errorf("vsr: generate wsdl for %s: %w", desc.ID, err)
	}
	cats := map[string]string{
		catMiddleware: desc.Middleware,
		catServiceID:  desc.ID,
	}
	for k, val := range desc.Context {
		cats[k] = val
	}
	return uddi.Entry{
		// Keying the UDDI entry by service ID makes re-registration a
		// refresh rather than a duplicate.
		Key:         "uuid:svc-" + desc.ID,
		Name:        desc.ID,
		Description: desc.Name,
		AccessPoint: endpoint,
		TModel:      desc.Interface.Name,
		WSDL:        string(doc),
		Categories:  cats,
	}, nil
}

// Register publishes a service with its gateway endpoint and returns the
// repository key. Call it again with the same description to refresh the
// TTL.
func (v *VSR) Register(ctx context.Context, desc service.Description, endpoint string) (string, error) {
	entry, err := EntryFor(desc, endpoint)
	if err != nil {
		return "", err
	}
	key, err := v.client.Save(ctx, entry, v.ttl)
	if err != nil {
		return "", fmt.Errorf("vsr: register %s: %w", desc.ID, err)
	}
	return key, nil
}

// Registration pairs a service description with the gateway endpoint
// serving it, for batched publication.
type Registration struct {
	Desc     service.Description
	Endpoint string
}

// RegisterAll publishes (or refreshes) every registration in a single
// repository round trip and returns the keys in order. This is how a
// gateway renews its N exports at one request per refresh interval
// instead of N.
func (v *VSR) RegisterAll(ctx context.Context, regs []Registration) ([]string, error) {
	if len(regs) == 0 {
		return nil, nil
	}
	entries := make([]uddi.Entry, len(regs))
	for i, r := range regs {
		entry, err := EntryFor(r.Desc, r.Endpoint)
		if err != nil {
			return nil, err
		}
		entries[i] = entry
	}
	keys, err := v.client.SaveAll(ctx, entries, v.ttl)
	if err != nil {
		return nil, fmt.Errorf("vsr: register batch of %d: %w", len(regs), err)
	}
	return keys, nil
}

// Unregister withdraws a registration by key.
func (v *VSR) Unregister(ctx context.Context, key string) error {
	if err := v.client.Delete(ctx, key); err != nil {
		return fmt.Errorf("vsr: unregister: %w", err)
	}
	return nil
}

// Find returns all services matching the query.
func (v *VSR) Find(ctx context.Context, q Query) ([]Remote, error) {
	out, _, err := v.FindSeq(ctx, q)
	return out, err
}

// FindSeq is Find plus the repository's change-journal sequence number
// observed at read time: any change the inquiry might have missed has a
// higher number, so a watch can start there.
func (v *VSR) FindSeq(ctx context.Context, q Query) ([]Remote, uint64, error) {
	uq := uddi.Query{TModel: q.Interface, Categories: map[string]string{}}
	if q.ID != "" {
		uq.Categories[catServiceID] = q.ID
	}
	if q.Middleware != "" {
		uq.Categories[catMiddleware] = q.Middleware
	}
	for k, val := range q.Context {
		uq.Categories[k] = val
	}
	entries, seq, err := v.client.FindSeq(ctx, uq)
	if err != nil {
		return nil, 0, fmt.Errorf("vsr: find: %w", err)
	}
	out := make([]Remote, 0, len(entries))
	for _, e := range entries {
		r, err := remoteFromEntry(e)
		if err != nil {
			// Skip malformed entries rather than failing the whole
			// inquiry; other publishers' bugs should not break lookup.
			continue
		}
		out = append(out, r)
	}
	return out, seq, nil
}

// Walk reads the repository's services in key-ordered, byte-bounded
// pages and hands each to visit, in key order. It returns the journal
// position of the first page: every page was read at or after it, so a
// reader that walks every page and then follows the watch from that
// position converges on the repository's state. A failed walk returns
// its error after visiting part of the repository, so nothing it missed
// may be taken as removed. Malformed entries are skipped, as in Find.
// The whole walk is bounded by walkTimeout.
func (v *VSR) Walk(ctx context.Context, visit func(Remote)) (seq uint64, err error) {
	ctx, cancel := context.WithTimeout(ctx, walkTimeout)
	defer cancel()
	for after, first := "", true; ; first = false {
		p, err := v.client.Page(ctx, after, 0)
		if err != nil {
			return 0, fmt.Errorf("vsr: page: %w", err)
		}
		if first {
			seq = p.Seq
		}
		for _, e := range p.Entries {
			if r, err := remoteFromEntry(e); err == nil {
				visit(r)
			}
		}
		if p.Next == "" {
			return seq, nil
		}
		after = p.Next
	}
}

// walkTimeout bounds one Walk of the repository.
const walkTimeout = 10 * time.Second

// Lookup returns the single service with the given federation ID.
func (v *VSR) Lookup(ctx context.Context, id string) (Remote, error) {
	found, err := v.Find(ctx, Query{ID: id})
	if err != nil {
		return Remote{}, err
	}
	if len(found) == 0 {
		return Remote{}, fmt.Errorf("vsr: %s: %w", id, service.ErrNoSuchService)
	}
	return found[0], nil
}

// DeltaOp classifies one watch notification.
type DeltaOp string

// Watch notifications. Add/Update/Delete/Expire mirror the registry's
// change journal; Resync, Up and Down describe the watch stream itself.
const (
	// DeltaAdd: a service appeared; Remote carries its description.
	DeltaAdd DeltaOp = "add"
	// DeltaUpdate: a registration changed (refresh, or a re-home to a new
	// endpoint); Remote carries the new description.
	DeltaUpdate DeltaOp = "update"
	// DeltaDelete: a service was explicitly unregistered.
	DeltaDelete DeltaOp = "delete"
	// DeltaExpire: a registration's TTL lapsed (its gateway went silent).
	DeltaExpire DeltaOp = "expire"
	// DeltaResync: the journal no longer covers the watcher's cursor
	// (too far behind, or the repository restarted). The follower calls
	// its ground function right after delivering it, before any further
	// change delta.
	DeltaResync DeltaOp = "resync"
	// DeltaUp: the watch stream is (re)established — change notifications
	// are flowing and caches may trust push invalidation again.
	DeltaUp DeltaOp = "up"
	// DeltaDown: a watch round failed; Err carries the cause. Until the
	// next DeltaUp, consumers are blind to changes and must fall back to
	// TTL-bounded caching.
	DeltaDown DeltaOp = "down"
)

// Delta is one notification from a repository watch.
type Delta struct {
	// Seq is the registry sequence number (change deltas and Resync).
	Seq uint64
	// Op classifies the notification.
	Op DeltaOp
	// ServiceID is the affected federation service (change deltas).
	ServiceID string
	// Remote is the service's current description (Add and Update only).
	Remote Remote
	// Err is the transport failure behind a Down delta.
	Err error
}

// Watch streams repository changes with sequence numbers greater than
// since: a channel adapter over a background Follower. The channel
// delivers change deltas in order, interleaved with stream-state deltas
// (Up/Down/Resync); it closes when ctx is cancelled. The first successful
// round trip emits DeltaUp immediately, so consumers learn the stream is
// live without waiting out a long-poll.
func (v *VSR) Watch(ctx context.Context, since uint64) (<-chan Delta, error) {
	if v.client.URL == "" && v.client.Resolver == nil {
		return nil, fmt.Errorf("vsr: watch: no repository URL")
	}
	// The buffer absorbs one round's burst of deltas, so a briefly busy
	// reader does not hold the next long-poll back.
	ch := make(chan Delta, 64)
	from := func(context.Context) (uint64, error) { return since, nil }
	f := v.Follow(from, func(d Delta) {
		select {
		case ch <- d:
		case <-ctx.Done():
		}
	})
	go func() {
		defer close(ch)
		f.Run(ctx)
	}()
	return ch, nil
}

// deltaFromChange maps a registry journal record to a federation delta.
// Malformed entries are skipped, mirroring Find's tolerance of other
// publishers' bugs.
func deltaFromChange(c uddi.Change) (Delta, bool) {
	d := Delta{Seq: c.Seq, Op: DeltaOp(c.Op)}
	switch c.Op {
	case uddi.OpAdd, uddi.OpUpdate:
		r, err := remoteFromEntry(c.Entry)
		if err != nil {
			return Delta{}, false
		}
		d.Remote = r
		d.ServiceID = r.Desc.ID
	case uddi.OpDelete, uddi.OpExpire:
		// Delete journal records carry only identity; the entry name is
		// the federation service ID by the Register keying convention.
		d.ServiceID = c.Entry.Name
	default:
		return Delta{}, false
	}
	return d, true
}

// remoteFromEntry rebuilds the service description from a UDDI entry.
// The WSDL goes through the process-wide parse memo: every registration
// refresh re-journals its document, and the services of one interface
// publish the same document (see EntryFor), so they share one parse.
func remoteFromEntry(e uddi.Entry) (Remote, error) {
	doc, err := wsdl.ParseShared(e.WSDL)
	if err != nil {
		return Remote{}, fmt.Errorf("vsr: entry %s: %w", e.Name, err)
	}
	desc := service.Description{
		ID:         e.Categories[catServiceID],
		Name:       e.Description,
		Middleware: e.Categories[catMiddleware],
		Interface:  doc.Interface,
		Context:    make(map[string]string),
	}
	if desc.ID == "" {
		desc.ID = e.Name
	}
	for k, val := range e.Categories {
		if k == catMiddleware || k == catServiceID {
			continue
		}
		desc.Context[k] = val
	}
	endpoint := e.AccessPoint
	if endpoint == "" {
		// An entry published before EntryFor left the address out of
		// the document may carry it only there.
		endpoint = doc.Location
	}
	return Remote{Desc: desc, Endpoint: endpoint}, nil
}

// Server hosts the repository itself: the UDDI registry behind an HTTP
// listener. Beyond the registry mount every gateway uses, a second mount
// (/peer, see MountPeer) can expose a policy-filtered, read-only face of
// the same registry to other homes. With an identity.Auth installed
// (StartServerAuth) both faces enforce the home boundary: /uddi is
// private to the home's own identity, /peer admits any trusted home.
type Server struct {
	registry *uddi.Server
	httpS    *http.Server
	ln       net.Listener
	mux      *http.ServeMux
	// base is the URL authority for a detached server (no listener) — a
	// virtual hostname on an in-memory network rather than a TCP address.
	base string
	auth *identity.Auth
	// bin is the binary fast-path face: signed sessions once the home
	// has an identity, anonymous ones before (or with no auth at all).
	// Listening servers share their port with it through a demultiplexer
	// and register it for in-process dialing; detached servers leave it
	// unreachable, keeping the simulation deterministic and SOAP-only.
	bin *transport.BinServer

	// peerView is the per-caller export view both /peer faces serve
	// through, nil until MountPeer.
	peerMu   sync.RWMutex
	peerView func(caller string) uddi.View

	// healthH and auditH are the read-only operability faces mounted at
	// /health and /audit, nil until MountOps. Like /uddi they are private
	// to the home's own identity once one is installed: a home's health
	// and audit trail are its own business.
	opsMu   sync.RWMutex
	healthH http.Handler
	auditH  http.Handler
}

// StartServer brings up a repository on addr ("127.0.0.1:0" for
// ephemeral) with no authentication context: the paper's open,
// home-network-trusting deployment.
func StartServer(addr string) (*Server, error) {
	return StartServerAuth(addr, nil)
}

// StartServerAuth is StartServer with the home's authentication context.
// auth may be open (no identity yet): enforcement switches on the moment
// an identity is installed, with no restart — the repository's own home
// keeps publishing because its gateways sign with the same Auth, while
// strangers lose every face at once. A nil auth disables authentication
// permanently.
func StartServerAuth(addr string, auth *identity.Auth) (*Server, error) {
	return StartServerWith(addr, uddi.NewServer(), auth)
}

// StartServerWith is StartServerAuth with a caller-supplied backing
// registry — how a daemon injects a durable (WAL + snapshot) store built
// with uddi.NewDurableServer while keeping every mounted face identical.
func StartServerWith(addr string, reg *uddi.Server, auth *identity.Auth) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("vsr: listen: %w", err)
	}
	s := newServer(reg, auth)
	s.ln = ln
	s.httpS = &http.Server{Handler: s.mux}
	// One port, two protocols: the demultiplexer sniffs the preamble and
	// routes binary connections to the session-keyed face, leaving
	// everything else to HTTP. In-process federations skip the socket
	// entirely through the local registry.
	serveLn := transport.Demux(ln, s.bin)
	transport.RegisterLocal(ln.Addr().String(), s.bin)
	go func() { _ = s.httpS.Serve(serveLn) }()
	return s, nil
}

// NewDetachedServer builds a repository with no TCP listener: the same
// faces StartServerAuth mounts (/uddi, /peer, /health, /audit), served
// through Handler instead of a socket. base is the URL authority the
// server advertises — a virtual hostname on a transport.MemNet. reg is
// the backing registry; the neighborhood simulation passes a
// uddi.NewManualServer so expiry runs on its event loop, not a
// wall-clock janitor. Close shuts the registry down but detached servers
// own no listener.
func NewDetachedServer(base string, reg *uddi.Server, auth *identity.Auth) *Server {
	s := newServer(reg, auth)
	s.base = base
	return s
}

// Handler returns the repository's full HTTP face — what a detached
// server registers on an in-memory network.
func (s *Server) Handler() http.Handler { return s.mux }

// newServer assembles the registry mux shared by the listening and
// detached constructions.
func newServer(reg *uddi.Server, auth *identity.Auth) *Server {
	s := &Server{registry: reg, auth: auth}
	mux := http.NewServeMux()
	// Each registry face is one uddi.Face served over both wires: XML
	// documents over HTTP, native binary records over the session-keyed
	// fast path (signed once the home has an identity, anonymous before
	// or, with no auth at all, forever). /uddi is private to the home's
	// own identity — gateways publish, resolve and watch there; /peer is
	// read-only, admits any trusted home, and serves each caller what the
	// mounted export view admits to it.
	var sessions transport.SessionAuth
	ownHome := ""
	if auth != nil {
		sessions, ownHome = auth, auth.Home()
	}
	private := uddi.Face{OwnHome: ownHome}
	peer := uddi.Face{ReadOnly: true, ViewFor: s.peerViewFor}
	mux.Handle("/uddi", identity.Require(auth, false, uddi.AuthErrorWriter, reg.HTTPHandler(private, identity.CallerFrom)))
	mux.Handle("/peer", identity.Require(auth, false, uddi.AuthErrorWriter, reg.HTTPHandler(peer, identity.CallerFrom)))
	s.bin = transport.NewBinServer(sessions)
	s.bin.Handle("/uddi", reg.BinHandler(private))
	s.bin.Handle("/peer", reg.BinHandler(peer))
	// The operability faces are read-only and, like /uddi, private to the
	// home's own identity; they serve 404 until MountOps supplies
	// handlers.
	mount := func(get func() http.Handler) http.Handler {
		return identity.Require(auth, true, identity.HTTPDeny,
			http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h := get()
				if h == nil {
					http.Error(w, "operability faces not enabled on this repository", http.StatusNotFound)
					return
				}
				h.ServeHTTP(w, r)
			}))
	}
	mux.Handle("/health", mount(func() http.Handler {
		s.opsMu.RLock()
		defer s.opsMu.RUnlock()
		return s.healthH
	}))
	mux.Handle("/audit", mount(func() http.Handler {
		s.opsMu.RLock()
		defer s.opsMu.RUnlock()
		return s.auditH
	}))
	s.mux = mux
	return s
}

// Auth returns the server's authentication context (nil when started
// with StartServer).
func (s *Server) Auth() *identity.Auth { return s.auth }

// authority is the host part of the server's advertised URLs: the TCP
// address when listening, the virtual hostname when detached.
func (s *Server) authority() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.base
}

// URL returns the repository endpoint for VSR clients.
func (s *Server) URL() string { return "http://" + s.authority() + "/uddi" }

// PeerURL returns the endpoint other homes replicate from (see
// MountPeer). It serves 404 until an export view is mounted.
func (s *Server) PeerURL() string { return "http://" + s.authority() + "/peer" }

// MountPeer installs the export view the peering face at /peer serves
// through — normally peer.Peering.ExportView, which applies the home's
// export policy and each caller's service ACL. Both wires of /peer take
// it at once: XML documents over HTTP and native binary records over
// the fast path see the same slice of the registry. Until a view is
// mounted (or after a nil one unmounts it), both answer every request
// with the same typed 404 E_unsupported refusal.
func (s *Server) MountPeer(viewFor func(caller string) uddi.View) {
	s.peerMu.Lock()
	s.peerView = viewFor
	s.peerMu.Unlock()
}

// peerViewFor is the /peer face's uddi.Face.ViewFor: the mounted view
// for caller, or ok=false while none is mounted.
func (s *Server) peerViewFor(caller string) (uddi.View, bool) {
	s.peerMu.RLock()
	vf := s.peerView
	s.peerMu.RUnlock()
	if vf == nil {
		return nil, false
	}
	return vf(caller), true
}

// MountOps installs the read-only operability faces at /health and
// /audit (normally ops.HealthHandler and ops.AuditHandler, wired by the
// federation assembler or the vsrd daemon). Nil handlers unmount.
func (s *Server) MountOps(health, auditH http.Handler) {
	s.opsMu.Lock()
	s.healthH = health
	s.auditH = auditH
	s.opsMu.Unlock()
}

// Registry exposes the underlying UDDI store (tests, stats).
func (s *Server) Registry() *uddi.Server { return s.registry }

// SetBinaryEnabled turns the binary fast-path face on or off (default
// on, in open and secured mode alike). Disabled, every handshake is
// refused and peers degrade to SOAP/HTTP — the SOAP-only home of a
// mixed-mode federation.
func (s *Server) SetBinaryEnabled(on bool) { s.bin.SetEnabled(on) }

// Close stops the repository: the HTTP listener (when one exists) and
// the registry's expiry janitor, waking any parked watchers.
func (s *Server) Close() {
	if s.ln != nil {
		transport.UnregisterLocal(s.ln.Addr().String())
	}
	s.bin.Close()
	if s.httpS != nil {
		_ = s.httpS.Close()
	}
	s.registry.Close()
}
