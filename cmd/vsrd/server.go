// Server assembly for vsrd: repository, journal sizing, the optional
// inter-home peering layer and the home's authentication context, kept
// out of main so it stays flag-only and testable.
package main

import (
	"context"
	"fmt"
	"strings"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/replica"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// config carries vsrd's flags.
type config struct {
	addr       string
	journal    int
	home       string
	peers      []string
	allow      []string
	deny       []string
	idFile     string
	trust      []string
	aclAllow   []string
	aclDeny    []string
	audit      bool
	auditPath  string
	auditBatch int
	// binary gates the session-keyed binary fast path — signed sessions
	// with an identity, anonymous ones without (SOAP/HTTP always remains
	// available).
	binary bool
	// dataDir, fsync, snapshotEvery arm the durable registry (WAL +
	// snapshots under dataDir, recovered on restart).
	dataDir       string
	fsync         string
	snapshotEvery int
	// replicaOf boots this repository as a replica feeding from that
	// leader; replicaSet is the ordered replica-set endpoint list (the
	// election tie-break order — give every member the same list).
	replicaOf  string
	replicaSet []string
}

// server is the assembled repository plus its peering layer.
type server struct {
	*vsr.Server
	peering *peer.Peering
	// audit is the home's audit log, nil when auditing is off.
	audit *audit.Log
	// identity is the loaded (or freshly generated) home identity, nil
	// when the repository runs open.
	identity *identity.Identity
	// identityGenerated reports that this run created the identity file,
	// so main can print the new public key once.
	identityGenerated bool
	// node is the replica-set coordination loop, nil outside a set.
	node     *replica.Node
	nodeStop context.CancelFunc
	// replicationWarn is a non-fatal bootstrap failure (e.g. the
	// configured leader was not up yet); the loop keeps retrying, main
	// just reports it.
	replicationWarn error
}

// Close stops replication links before the repository they write to.
func (s *server) Close() {
	if s.nodeStop != nil {
		s.nodeStop()
	}
	if s.peering != nil {
		s.peering.Close()
	}
	s.Server.Close()
	_ = s.audit.Close()
}

// Shutdown is the graceful (SIGTERM) stop: replication halts first, then
// the registry writes its clean-shutdown WAL marker and journals a
// registry.shutdown audit event, so the next boot from the same -data-dir
// skips tail-scan recovery. Safe (and equivalent to Close) without
// -data-dir.
func (s *server) Shutdown() {
	if s.nodeStop != nil {
		s.nodeStop()
	}
	if s.peering != nil {
		s.peering.Close()
	}
	_ = s.Registry().Shutdown()
	s.Server.Close()
	_ = s.audit.Close()
}

// healthReport is vsrd's /health face body: the standalone repository's
// condition (no gateways here — each vsgd serves its own).
type healthReport struct {
	Home        string                 `json:"home,omitempty"`
	AuthEnabled bool                   `json:"auth_enabled"`
	Registry    registryStats          `json:"registry"`
	Replication *replica.Status        `json:"replication,omitempty"`
	Peers       map[string]peer.Status `json:"peers,omitempty"`
	Wire        transport.WireStats    `json:"wire,omitempty"`
	Audit       audit.Stats            `json:"audit"`
	Durability  *uddi.DurabilityStats  `json:"durability,omitempty"`
}

type registryStats struct {
	Entries int    `json:"entries"`
	Saves   int64  `json:"saves"`
	Finds   int64  `json:"finds"`
	Seq     uint64 `json:"seq"`
}

// mountOps installs the /health and /audit faces and, when the audit
// flags ask for it, opens the audit log and wires every component's
// recorder into it.
func (s *server) mountOps(cfg config, auth *identity.Auth) error {
	if cfg.audit || cfg.auditPath != "" {
		l, err := audit.New(audit.Options{Path: cfg.auditPath, BatchSize: cfg.auditBatch})
		if err != nil {
			return err
		}
		s.audit = l
		if auth != nil {
			auth.SetRecorder(audit.WithFace(l, "auth", cfg.home))
		}
		s.Registry().SetAuditRecorder(audit.WithFace(l, "vsr", cfg.home))
		if s.peering != nil {
			s.peering.SetRecorder(audit.WithFace(l, "peer", cfg.home))
		}
		if s.node != nil {
			s.node.SetRecorder(audit.WithFace(l, "replica", cfg.home))
		}
	}
	s.MountOps(
		ops.HealthHandler(func() any {
			saves, finds := s.Registry().Stats()
			var peers map[string]peer.Status
			var wire transport.WireStats
			if s.peering != nil {
				peers = s.peering.Status()
				wire = s.peering.WireStats()
			}
			var durability *uddi.DurabilityStats
			if d := s.Registry().Durability(); d.Enabled {
				durability = &d
			}
			var repl *replica.Status
			if s.node != nil {
				st := s.node.Status()
				repl = &st
			}
			return healthReport{
				Home:        cfg.home,
				AuthEnabled: auth != nil && auth.Enabled(),
				Registry: registryStats{
					Entries: s.Registry().Len(),
					Saves:   saves,
					Finds:   finds,
					Seq:     s.Registry().Seq(),
				},
				Replication: repl,
				Peers:       peers,
				Wire:        wire,
				Audit:       s.audit.Stats(),
				Durability:  durability,
			}
		}),
		ops.AuditHandler(func() *audit.Log { return s.audit }),
	)
	return nil
}

// normalizeEndpoint turns a replica-set member name into the registry
// URL form the set compares by: bare "host:port" gains the scheme and
// the /uddi path, so flags can name members the same way -addr does.
func normalizeEndpoint(ep string) string {
	if ep == "" {
		return ""
	}
	if !strings.Contains(ep, "://") {
		ep = "http://" + ep
	}
	if !strings.HasSuffix(ep, "/uddi") {
		ep = strings.TrimRight(ep, "/") + "/uddi"
	}
	return ep
}

// buildNode assembles the replica-set coordination node (nil config →
// nil node). It only constructs; bootReplication later decides the role
// and starts the loop, after the operability faces are mounted. The
// node's inter-member traffic — state transfer, feed, election probes —
// rides its own dialer: the binary fast path under the member's session
// kind (signed with an identity, anonymous without), SOAP/HTTP with
// -binary=false.
func buildNode(cfg config, srv *vsr.Server, auth *identity.Auth) (*replica.Node, error) {
	if cfg.replicaOf == "" && len(cfg.replicaSet) == 0 {
		return nil, nil
	}
	set := make([]string, 0, len(cfg.replicaSet))
	for _, ep := range cfg.replicaSet {
		set = append(set, normalizeEndpoint(ep))
	}
	var creds transport.Credentials
	if auth != nil {
		creds = auth
	}
	d := transport.NewDialer(creds)
	d.Binary = cfg.binary
	return replica.New(replica.Config{
		Self:      srv.URL(),
		Set:       set,
		ReplicaOf: normalizeEndpoint(cfg.replicaOf),
		Registry:  srv.Registry(),
		Dialer:    d,
	})
}

// bootReplication decides the node's initial role and starts the
// coordination loop. A failed first attach is not fatal — the loop keeps
// retrying (and elects, if the configured leader stays dead) — but it is
// returned so main can report it.
func (s *server) bootReplication() error {
	if s.node == nil {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.nodeStop = cancel
	err := s.node.Bootstrap(ctx)
	go s.node.Run(ctx)
	return err
}

// buildAuth assembles the authentication context from flags: the home's
// identity file (created on first use), trust entries and ACL rules.
func buildAuth(cfg config) (*identity.Auth, *identity.Identity, bool, error) {
	auth := identity.NewAuth(cfg.home)
	var id *identity.Identity
	generated := false
	if cfg.idFile != "" {
		var err error
		id, generated, err = identity.LoadOrGenerate(cfg.idFile, cfg.home)
		if err != nil {
			return nil, nil, false, err
		}
		if err := auth.SetIdentity(id); err != nil {
			return nil, nil, false, err
		}
	}
	if err := identity.Configure(auth, cfg.trust, cfg.aclAllow, cfg.aclDeny); err != nil {
		return nil, nil, false, err
	}
	return auth, id, generated, nil
}

// buildRegistry constructs the backing store: durable (WAL + snapshots
// under -data-dir, recovered on boot) when dataDir is set, plain
// in-memory otherwise.
func buildRegistry(cfg config) (*uddi.Server, error) {
	if cfg.dataDir == "" {
		if cfg.fsync != "" || cfg.snapshotEvery != 0 {
			return nil, fmt.Errorf("vsrd: -fsync/-snapshot-every require -data-dir")
		}
		return uddi.NewServer(), nil
	}
	return uddi.NewDurableServer(uddi.DurabilityOptions{
		Dir:           cfg.dataDir,
		Fsync:         uddi.FsyncPolicy(cfg.fsync),
		SnapshotEvery: cfg.snapshotEvery,
	})
}

// startServer brings up the repository per config. A positive journal
// capacity resizes the change journal before traffic flows; a data
// directory makes the registry durable; a home name mounts the peering
// endpoint and starts one import link per peer URL; an identity file
// arms authentication on every face.
func startServer(cfg config) (*server, error) {
	authFlagged := cfg.idFile != "" || len(cfg.trust) > 0 || len(cfg.aclAllow) > 0 || len(cfg.aclDeny) > 0
	if cfg.home == "" {
		if len(cfg.peers) > 0 || len(cfg.allow) > 0 || len(cfg.deny) > 0 || authFlagged {
			return nil, fmt.Errorf("vsrd: -peer/-export-*/-identity/-trust/-acl-* require -home")
		}
		reg, err := buildRegistry(cfg)
		if err != nil {
			return nil, err
		}
		srv, err := vsr.StartServerWith(cfg.addr, reg, nil)
		if err != nil {
			return nil, err
		}
		if cfg.journal > 0 {
			srv.Registry().SetJournalCapacity(cfg.journal)
		}
		srv.SetBinaryEnabled(cfg.binary)
		s := &server{Server: srv}
		if s.node, err = buildNode(cfg, srv, nil); err != nil {
			srv.Close()
			return nil, err
		}
		if err := s.mountOps(cfg, nil); err != nil {
			s.Close()
			return nil, err
		}
		s.replicationWarn = s.bootReplication()
		return s, nil
	}
	auth, id, generated, err := buildAuth(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := buildRegistry(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := vsr.StartServerWith(cfg.addr, reg, auth)
	if err != nil {
		return nil, err
	}
	if cfg.journal > 0 {
		srv.Registry().SetJournalCapacity(cfg.journal)
	}
	s := &server{Server: srv, identity: id, identityGenerated: generated}
	if s.node, err = buildNode(cfg, srv, auth); err != nil {
		srv.Close()
		return nil, err
	}
	p, err := peer.New(cfg.home, srv.Registry(), auth)
	if err != nil {
		srv.Close()
		return nil, err
	}
	p.SetPolicy(peer.Policy{Allow: cfg.allow, Deny: cfg.deny})
	srv.MountPeer(p.ExportView)
	s.peering = p
	srv.SetBinaryEnabled(cfg.binary)
	p.SetBinaryEnabled(cfg.binary)
	if err := s.mountOps(cfg, auth); err != nil {
		s.Close()
		return nil, err
	}
	for _, url := range cfg.peers {
		if _, err := p.Peer(url); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.replicationWarn = s.bootReplication()
	return s, nil
}
