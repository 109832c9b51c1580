// Command vsgd runs one Virtual Service Gateway for a middleware network
// and attaches the requested Protocol Conversion Manager. Networks whose
// hardware is in-process-only (the X10 powerline and HAVi bus
// simulations) are hosted by cmd/homesim instead; vsgd covers the
// middleware reachable over real sockets: Jini lookup services, UPnP
// devices, and mail servers.
//
// The gateway follows the repository's change notifications into one
// view of the registry (grounded from the repository's pages, then
// push-updated) that its resolves and its PCM's server proxies share.
// -cache-ttl and -no-watch choose only how resolves read: -cache-ttl sets
// the fallback TTL used while the watch is down (0 asks the repository
// every time), and -no-watch keeps resolves on the paper's blind TTL poll
// model. Server proxies and the view follow the registry regardless.
//
// When the repository federates with other homes (vsrd -home), pass the
// same name via -home so peers' scoped calls ("cottage/jini:lamp-1")
// reach this gateway's exports.
//
// When the home has an identity (vsrd -identity), give every gateway the
// same identity file and trust entries: the gateway then signs its
// repository and cross-home traffic, requires a trusted caller identity
// on its SOAP and event faces, and enforces the home's service ACL
// (-acl-allow/-acl-deny, 'caller-pattern=service-pattern', deny wins) on
// calls arriving from other homes. See docs/security.md and
// docs/operations.md.
//
//	vsgd -vsr http://127.0.0.1:8600/uddi -name jini-net -middleware jini -jini-lookup 127.0.0.1:4160
//	vsgd -vsr ... -name upnp-net -middleware upnp -ssdp 127.0.0.1:1900
//	vsgd -vsr ... -name mail-net -middleware mail -smtp 127.0.0.1:2525 -pop3 127.0.0.1:2110 -mailbox home@house.example
//	vsgd -vsr ... -home cottage -name jini-net -middleware jini -jini-lookup ...
//	vsgd -vsr ... -home cottage -identity cottage.id -trust 'apartment=2b7e...' \
//	     -acl-deny '*=x10:*' -name havi-net -middleware none
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"homeconnect/internal/cli"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.vsrURL, "vsr", "http://127.0.0.1:8600/uddi", "Virtual Service Repository URL")
	flag.StringVar(&cfg.name, "name", "", "network name (required)")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:0", "gateway listen address")
	flag.DurationVar(&cfg.cacheTTL, "cache-ttl", 2*time.Second, "resolve-cache fallback TTL while the VSR watch is down (0 disables caching); server proxies follow the registry regardless")
	flag.BoolVar(&cfg.noWatch, "no-watch", false, "resolve by the paper's poll model (blind TTL caching) instead of the VSR watch's view; server proxies follow the registry regardless")
	flag.BoolVar(&cfg.binary, "binary", true, "negotiate the session-keyed binary fast path with framework peers (signed with -identity, anonymous without; SOAP/HTTP stays available)")
	flag.StringVar(&cfg.home, "home", "", "home name; must match the repository's vsrd -home when federating")
	flag.StringVar(&cfg.idFile, "identity", "", "home identity file (same file as vsrd's; requires -home)")
	flag.BoolVar(&cfg.auditOn, "audit", false, "enable the in-memory audit log (see -audit-log to persist)")
	flag.StringVar(&cfg.auditLog, "audit-log", "", "persist the audit log to this file (implies -audit)")
	flag.IntVar(&cfg.auditBatch, "audit-batch", 0, "audit Merkle batch size (0 = default 64)")
	var trust, aclAllow, aclDeny cli.Multi
	flag.Var(&trust, "trust", "trusted home, 'name=hex-public-key' (repeatable; requires -identity)")
	flag.Var(&aclAllow, "acl-allow", "service-ACL allow rule, 'caller-pattern=service-pattern' (repeatable)")
	flag.Var(&aclDeny, "acl-deny", "service-ACL deny rule, 'caller-pattern=service-pattern' (repeatable)")
	flag.StringVar(&cfg.middleware, "middleware", "", "PCM to attach: jini, upnp, mail, none")
	flag.StringVar(&cfg.jiniLookup, "jini-lookup", "", "jini: lookup service address")
	flag.StringVar(&cfg.ssdp, "ssdp", "", "upnp: comma-separated SSDP addresses to search")
	flag.StringVar(&cfg.smtp, "smtp", "", "mail: SMTP server address")
	flag.StringVar(&cfg.pop3, "pop3", "", "mail: POP3 server address")
	flag.StringVar(&cfg.mailbox, "mailbox", "", "mail: command mailbox address")
	flag.Parse()
	cfg.trust, cfg.aclAllow, cfg.aclDeny = trust, aclAllow, aclDeny

	g, err := startGateway(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	mode := "watch-maintained resolve cache"
	if cfg.noWatch {
		mode = fmt.Sprintf("TTL resolve cache (%v)", cfg.cacheTTL)
	}
	fmt.Printf("vsgd: gateway %q at %s (events at %s, %s)\n", cfg.name, g.BaseURL(), g.EventsURL(), mode)
	if auth := g.Auth(); auth != nil {
		fmt.Printf("vsgd: authentication enforced as home %q; trusted homes: %v\n", cfg.home, auth.TrustedHomes())
	}
	if g.audit != nil {
		where := "in memory"
		if cfg.auditLog != "" {
			where = cfg.auditLog
		}
		fmt.Printf("vsgd: audit plane on (%s); health at %s/health, audit at %s/audit\n", where, g.BaseURL(), g.BaseURL())
	}
	if g.pcm != nil {
		fmt.Printf("vsgd: %s PCM attached\n", g.pcm.Middleware())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("vsgd: shutting down")
}
