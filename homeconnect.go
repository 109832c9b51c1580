// Package homeconnect is a framework for connecting home computing
// middleware, reproducing Tokunaga et al., "A Framework for Connecting
// Home Computing Middleware" (ICDCS Workshops 2002).
//
// A federation is built from three kinds of components, one set per
// middleware network:
//
//   - the Virtual Service Repository (VSR) stores every service's
//     interface (as WSDL), location and context (in a UDDI-style
//     registry);
//   - each network's Virtual Service Gateway (VSG) speaks SOAP 1.1 over
//     HTTP to the other gateways and hosts a SOAP endpoint per exported
//     service;
//   - each middleware's Protocol Conversion Manager (PCM) converts
//     between the native protocol and the gateway: its Client Proxy
//     exports local services to the federation and its Server Proxy
//     plants native stand-ins for every remote service, so unmodified
//     legacy clients and services interoperate.
//
// Quick start:
//
//	fed, err := homeconnect.New()
//	if err != nil { ... }
//	defer fed.Close()
//	net, err := fed.AddNetwork("livingroom")
//	if err != nil { ... }
//	err = net.Attach(ctx, jinipcm.New(lookupAddr))
//	...
//	result, err := fed.Call(ctx, "jini:lamp-1", "On")
//
// The repository is an active component: gateways watch its change
// journal, so service registrations, moves and expiries propagate to
// every resolution cache in milliseconds instead of waiting out a TTL;
// Federation.Health surfaces each gateway's watch and refresh condition.
//
// The concrete PCMs live in internal/bridge; the middleware simulations
// they convert (Jini, HAVi on IEEE 1394, X10 behind a CM11A, SMTP/POP3
// mail, UPnP) live in their own internal packages. See README.md for a
// tour and DESIGN.md for the full inventory and experiment index.
package homeconnect

import (
	"homeconnect/internal/core"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// Federation is a running instance of the framework: one Virtual Service
// Repository plus any number of middleware networks.
type Federation = core.Federation

// Network is one middleware network: a Virtual Service Gateway plus its
// attached Protocol Conversion Managers.
type Network = core.Network

// New starts a federation with its own repository.
func New() (*Federation, error) { return core.NewFederation() }

// NewHomeFederation starts a federation named as one home of a wider
// multi-home deployment. Peer it with other homes' PeerURL endpoints and
// their exported services become callable here under home-scoped IDs:
//
//	away, _ := homeconnect.NewHomeFederation("apartment")
//	_ = away.Peer(cottagePeerURL)
//	result, _ := away.Call(ctx, "cottage/havi:dvcam-cam1", "Status")
//
// See DESIGN.md §11 for ID scoping, replication and policy semantics.
func NewHomeFederation(home string) (*Federation, error) {
	return core.NewHomeFederation(home)
}

// Inter-home federation re-exports (see internal/core/peer).
type (
	// PeerPolicy is a home's export policy: allow/deny service-ID
	// patterns with event-topic matching semantics ("havi:*"). Deny
	// wins; an empty allow list admits everything.
	PeerPolicy = peer.Policy
	// PeerStatus is one replication link's condition, keyed by peer URL
	// in Federation.PeerStatus. Its Proto field names the wire protocol
	// the link rides: "binary" once the session-keyed fast path has been
	// negotiated, "soap" otherwise.
	PeerStatus = peer.Status
)

// Wire-mode re-exports (see internal/transport and DESIGN.md §16).
// Framework-owned endpoints negotiate a compact binary framing under
// HMAC session keys — signed sessions between identity-bearing homes,
// anonymous ones between open homes; SOAP/HTTP remains the ingress and
// interop wire, byte-identical to earlier releases.
type (
	// WireStats maps each dialed authority to its link's wire-protocol
	// state; reachable via Federation.WireStats and the /health face.
	WireStats = transport.WireStats
	// LinkStats is one authority's entry in WireStats: negotiated
	// protocol, session age, and handshake/rekey/downgrade counts.
	LinkStats = transport.LinkStats
)

// Identity and authorization re-exports (see internal/core/identity and
// docs/security.md). A federation without an identity runs open — the
// paper's home-network trust model; with one installed
// (Federation.SetIdentity), every wire operation crossing the home
// boundary is signed and verified, only homes recorded via TrustHome may
// peer or call, and the ServiceACL refines what each of them may reach:
//
//	id, _ := homeconnect.GenerateIdentity("cottage")
//	cottage, _ := homeconnect.NewHomeFederation("cottage")
//	_ = cottage.SetIdentity(id)
//	_ = cottage.TrustHome("apartment", apartmentPublicKey)
//	cottage.SetServiceACL(homeconnect.ServiceACL{
//		Deny: []homeconnect.ACLRule{{Caller: "*", Service: "x10:*"}},
//	})
type (
	// Identity is one home's durable keypair; its PublicKey is the token
	// other homes trust.
	Identity = identity.Identity
	// ServiceACL is the per-service access-control list enforced against
	// authenticated callers from other homes (deny wins; an empty allow
	// list admits).
	ServiceACL = identity.ACL
	// ACLRule is one ServiceACL entry: caller-home and service-ID
	// patterns with event-topic matching semantics.
	ACLRule = identity.Rule
)

var (
	// GenerateIdentity creates a fresh identity for the named home.
	GenerateIdentity = identity.Generate
	// LoadIdentity reads an identity file written by Identity.Save.
	LoadIdentity = identity.Load
)

// Scene-engine re-exports: declarative cross-middleware compositions (the
// paper's §2 automatic-recording scenario as data, not code). Load scenes
// into a federation with fed.Scenes().LoadXML or .Load; see
// internal/core/scene and DESIGN.md for the model and XML schema.
type (
	// Scene is one declarative composition: triggers + guards + steps.
	Scene = scene.Scene
	// SceneTrigger fires scene runs (event match or interval schedule).
	SceneTrigger = scene.Trigger
	// SceneGuard is one comparison over trigger payloads or step results.
	SceneGuard = scene.Guard
	// SceneStep is one action: a federation call, an event publication,
	// or a sleep.
	SceneStep = scene.Step
	// SceneEngine loads, arms and executes scenes.
	SceneEngine = scene.Engine
	// SceneRecord is the account of one scene run.
	SceneRecord = scene.Record
	// SceneStatus is one scene's run-history view.
	SceneStatus = scene.Status
)

// EncodeScenes renders scenes as their canonical XML document.
var EncodeScenes = scene.Encode

// DecodeScenes parses and validates a scene XML document.
var DecodeScenes = scene.Decode

// Service model re-exports: the middleware-neutral types every PCM
// converts to and from.
type (
	// Value is a dynamically typed service argument or result.
	Value = service.Value
	// Kind identifies a Value's wire type.
	Kind = service.Kind
	// Parameter is a named, typed operation input.
	Parameter = service.Parameter
	// Operation is one callable operation of an interface.
	Operation = service.Operation
	// Interface is a named set of operations.
	Interface = service.Interface
	// Description advertises one service to the federation.
	Description = service.Description
	// Invoker is the uniform calling convention for all proxies.
	Invoker = service.Invoker
	// InvokerFunc adapts a function to Invoker.
	InvokerFunc = service.InvokerFunc
	// Event is a middleware-neutral asynchronous notification.
	Event = service.Event
)

// Value kinds.
const (
	KindVoid   = service.KindVoid
	KindString = service.KindString
	KindInt    = service.KindInt
	KindFloat  = service.KindFloat
	KindBool   = service.KindBool
	KindBytes  = service.KindBytes
)

// Value constructors.
var (
	// Void returns the void value.
	Void = service.Void
	// String returns a string value.
	String = service.StringValue
	// Int returns an integer value.
	Int = service.IntValue
	// Float returns a floating-point value.
	Float = service.FloatValue
	// Bool returns a boolean value.
	Bool = service.BoolValue
	// Bytes returns a binary value.
	Bytes = service.BytesValue
)

// Well-known errors, testable with errors.Is across middleware and
// gateway boundaries.
var (
	// ErrNoSuchService reports an unknown federation service ID.
	ErrNoSuchService = service.ErrNoSuchService
	// ErrNoSuchOperation reports an operation outside the interface.
	ErrNoSuchOperation = service.ErrNoSuchOperation
	// ErrBadArgument reports an arity or type mismatch.
	ErrBadArgument = service.ErrBadArgument
	// ErrUnavailable reports a reachable-in-principle service that cannot
	// currently be called (gateway down, lease lapsed, device detached).
	ErrUnavailable = service.ErrUnavailable
	// ErrUnauthenticated reports a caller without a valid, trusted
	// identity at a home that enforces authentication.
	ErrUnauthenticated = service.ErrUnauthenticated
	// ErrForbidden reports an authenticated caller refused by a home's
	// export policy or service ACL.
	ErrForbidden = service.ErrForbidden
)
