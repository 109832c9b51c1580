// Command vsrd runs a standalone Virtual Service Repository: the
// WSDL/UDDI registry every gateway publishes to, resolves from, and
// watches for change notifications. -journal sizes the change journal;
// watchers further behind than it are told to resync.
//
// With -home the repository also serves a peering endpoint (/peer):
// other homes replicate this registry's exports from it, and -peer
// imports theirs in return, filing each remote service under its home
// scope ("home-a/jini:laserdisc-1"). -export-allow/-export-deny set the
// export policy (service-ID patterns, deny wins, "havi:*" style
// wildcards).
//
// With -replica-set (same ordered list on every member) the repository
// joins a leader/replica set: one member serves writes, the others feed
// from its watch stream and serve reads, and when the leader dies the
// survivors elect the most-caught-up member deterministically. -replica-of
// forces the initial role; see docs/operations.md "Replication &
// failover".
//
// With -identity the home takes a durable cryptographic identity (the
// file is created on first use; the public key is printed so other
// homes can -trust it) and every face starts enforcing the home
// boundary: /uddi is private to this home's own components, /peer and
// gateway calls are open only to homes named by -trust, and
// -acl-allow/-acl-deny refine per-service access per caller home
// ("guest-*=havi:*" patterns, deny wins). See docs/security.md for the
// trust model and a full walkthrough, docs/operations.md for the flag
// reference.
//
//	vsrd -addr 127.0.0.1:8600
//	vsrd -addr 127.0.0.1:8600 -journal 8192
//	vsrd -addr 127.0.0.1:8600 -home cottage \
//	     -peer http://apartment.example:8600/peer -export-deny 'x10:*'
//	vsrd -addr 127.0.0.1:8600 -home cottage -identity cottage.id \
//	     -trust 'apartment=2b7e...' -acl-deny '*=x10:*'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"homeconnect/internal/cli"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8600", "listen address")
	journal := flag.Int("journal", 0, "change-journal capacity (0 = default)")
	home := flag.String("home", "", "home name for inter-home federation (enables /peer)")
	idFile := flag.String("identity", "", "home identity file (created on first use; requires -home)")
	auditOn := flag.Bool("audit", false, "enable the in-memory audit log (see -audit-log to persist)")
	auditLog := flag.String("audit-log", "", "persist the audit log to this file (implies -audit)")
	auditBatch := flag.Int("audit-batch", 0, "audit Merkle batch size (0 = default 64)")
	dataDir := flag.String("data-dir", "", "durable registry directory (WAL + snapshots; recovered on restart)")
	fsync := flag.String("fsync", "", "WAL fsync policy: always, interval or off (default interval; requires -data-dir)")
	snapshotEvery := flag.Int("snapshot-every", 0, "snapshot after this many WAL records (0 = default 1024, negative disables; requires -data-dir)")
	binary := flag.Bool("binary", true, "offer the session-keyed binary fast path to peers and replica-set members (signed with -identity, anonymous without; SOAP/HTTP stays available)")
	replicaOf := flag.String("replica-of", "", "boot as a replica feeding from this leader repository (host:port or URL)")
	var peers, allow, deny, trust, aclAllow, aclDeny, replicaSet cli.Multi
	flag.Var(&replicaSet, "replica-set", "replica-set member (repeatable, ordered — give every member the same list; enables failover elections)")
	flag.Var(&peers, "peer", "peer endpoint to import from (repeatable; requires -home)")
	flag.Var(&allow, "export-allow", "export-policy allow pattern (repeatable)")
	flag.Var(&deny, "export-deny", "export-policy deny pattern (repeatable)")
	flag.Var(&trust, "trust", "trusted home, 'name=hex-public-key' (repeatable; requires -identity)")
	flag.Var(&aclAllow, "acl-allow", "service-ACL allow rule, 'caller-pattern=service-pattern' (repeatable)")
	flag.Var(&aclDeny, "acl-deny", "service-ACL deny rule, 'caller-pattern=service-pattern' (repeatable)")
	flag.Parse()

	srv, err := startServer(config{
		addr:          *addr,
		journal:       *journal,
		home:          *home,
		peers:         peers,
		allow:         allow,
		deny:          deny,
		idFile:        *idFile,
		trust:         trust,
		aclAllow:      aclAllow,
		aclDeny:       aclDeny,
		audit:         *auditOn,
		auditPath:     *auditLog,
		auditBatch:    *auditBatch,
		binary:        *binary,
		dataDir:       *dataDir,
		fsync:         *fsync,
		snapshotEvery: *snapshotEvery,
		replicaOf:     *replicaOf,
		replicaSet:    replicaSet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("vsrd: repository at %s (gateways may watch for changes here)\n", srv.URL())
	if d := srv.Registry().Durability(); d.Enabled {
		rec := d.Recovery
		state := "recovered after unclean shutdown"
		switch {
		case rec.CleanShutdown:
			state = "clean shutdown"
		case rec.Seq == 0 && rec.Replayed == 0 && rec.SnapshotSeq == 0:
			// Nothing on disk to recover: a brand-new data directory, not
			// a crash.
			state = "fresh data directory"
		}
		fmt.Printf("vsrd: durable registry in %s (%s): %d entries, seq %d, %d WAL records replayed; fsync %s\n",
			d.Dir, state, rec.Entries, rec.Seq, rec.Replayed, d.Fsync)
	}
	if srv.node != nil {
		st := srv.node.Status()
		if st.Role == "leader" {
			fmt.Printf("vsrd: replication: leader of epoch %d at seq %d\n", st.Epoch, st.Seq)
		} else {
			fmt.Printf("vsrd: replication: replica of %s (epoch %d, seq %d, attached %v)\n",
				st.Leader, st.Epoch, st.Seq, st.Attached)
		}
		if srv.replicationWarn != nil {
			fmt.Printf("vsrd: replication: first attach failed (%v); retrying in the background\n", srv.replicationWarn)
		}
	}
	if *home != "" {
		fmt.Printf("vsrd: home %q peering endpoint at %s\n", *home, srv.PeerURL())
	}
	if srv.identity != nil {
		state := "loaded"
		if srv.identityGenerated {
			state = "generated"
		}
		fmt.Printf("vsrd: identity %s — public key %s\n", state, srv.identity.PublicKey())
		fmt.Printf("vsrd: authentication enforced; trusted homes: %v\n", srv.Auth().TrustedHomes())
	}
	for _, p := range peers {
		fmt.Printf("vsrd: importing from peer %s\n", p)
	}
	if srv.audit != nil {
		where := "in memory"
		if *auditLog != "" {
			where = *auditLog
		}
		fmt.Printf("vsrd: audit plane on (%s); /health and /audit faces live\n", where)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("vsrd: shutting down")
	// Graceful stop: the registry writes its clean-shutdown WAL marker and
	// journals registry.shutdown, so the next boot skips tail recovery.
	// The deferred Close is then a no-op.
	srv.Shutdown()
}
