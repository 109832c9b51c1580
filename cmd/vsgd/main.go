// Command vsgd runs one Virtual Service Gateway for a middleware network
// and attaches the requested Protocol Conversion Manager. Networks whose
// hardware is in-process-only (the X10 powerline and HAVi bus
// simulations) are hosted by cmd/homesim instead; vsgd covers the
// middleware reachable over real sockets: Jini lookup services, UPnP
// devices, and mail servers.
//
// The gateway watches the repository for change notifications, so its
// resolve cache is push-invalidated; -cache-ttl sets the fallback TTL
// used while the watch is down, and -no-watch reverts to the paper's
// blind TTL poll model. Calls that resolve to a gateway in the same
// process dispatch in-process (loopback) instead of over SOAP/HTTP;
// -no-loopback forces every call onto the wire.
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
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"homeconnect/internal/bridge/jinipcm"
	"homeconnect/internal/bridge/mailpcm"
	"homeconnect/internal/bridge/upnppcm"
	"homeconnect/internal/cli"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/vsg"
)

// buildAuth assembles the gateway's authentication context from flags,
// or returns nil when no identity file is given (open mode).
func buildAuth(home, idFile string, trust, aclAllow, aclDeny []string) (*identity.Auth, error) {
	if idFile == "" {
		if len(trust) > 0 || len(aclAllow) > 0 || len(aclDeny) > 0 {
			return nil, fmt.Errorf("vsgd: -trust/-acl-* require -identity")
		}
		return nil, nil
	}
	if home == "" {
		return nil, fmt.Errorf("vsgd: -identity requires -home")
	}
	id, err := identity.Load(idFile)
	if err != nil {
		return nil, err
	}
	auth := identity.NewAuth(home)
	if err := auth.SetIdentity(id); err != nil {
		return nil, err
	}
	if err := identity.Configure(auth, trust, aclAllow, aclDeny); err != nil {
		return nil, err
	}
	return auth, nil
}

func main() {
	vsrURL := flag.String("vsr", "http://127.0.0.1:8600/uddi", "Virtual Service Repository URL")
	name := flag.String("name", "", "network name (required)")
	addr := flag.String("addr", "127.0.0.1:0", "gateway listen address")
	cacheTTL := flag.Duration("cache-ttl", 2*time.Second, "resolve-cache fallback TTL while the VSR watch is down (0 disables caching)")
	noWatch := flag.Bool("no-watch", false, "disable the VSR change watch (blind TTL caching, the paper's poll model)")
	noLoopback := flag.Bool("no-loopback", false, "disable in-process loopback dispatch; every call goes over SOAP/HTTP")
	binary := flag.Bool("binary", true, "negotiate the session-keyed binary fast path with framework peers (signed with -identity, anonymous without; SOAP/HTTP stays available)")
	home := flag.String("home", "", "home name; must match the repository's vsrd -home when federating")
	idFile := flag.String("identity", "", "home identity file (same file as vsrd's; requires -home)")
	auditOn := flag.Bool("audit", false, "enable the in-memory audit log (see -audit-log to persist)")
	auditLog := flag.String("audit-log", "", "persist the audit log to this file (implies -audit)")
	auditBatch := flag.Int("audit-batch", 0, "audit Merkle batch size (0 = default 64)")
	var trust, aclAllow, aclDeny cli.Multi
	flag.Var(&trust, "trust", "trusted home, 'name=hex-public-key' (repeatable; requires -identity)")
	flag.Var(&aclAllow, "acl-allow", "service-ACL allow rule, 'caller-pattern=service-pattern' (repeatable)")
	flag.Var(&aclDeny, "acl-deny", "service-ACL deny rule, 'caller-pattern=service-pattern' (repeatable)")
	middleware := flag.String("middleware", "", "PCM to attach: jini, upnp, mail, none")
	jiniLookup := flag.String("jini-lookup", "", "jini: lookup service address")
	ssdp := flag.String("ssdp", "", "upnp: comma-separated SSDP addresses to search")
	smtp := flag.String("smtp", "", "mail: SMTP server address")
	pop3 := flag.String("pop3", "", "mail: POP3 server address")
	mailbox := flag.String("mailbox", "", "mail: command mailbox address")
	flag.Parse()
	if *name == "" {
		log.Fatal("vsgd: -name is required")
	}

	auth, err := buildAuth(*home, *idFile, trust, aclAllow, aclDeny)
	if err != nil {
		log.Fatal(err)
	}

	gw := vsg.New(*name, *vsrURL)
	// In a federated deployment (vsrd -home) peers address this gateway
	// by the home's scoped IDs; the gateway must know its home to strip
	// that scope on inbound calls and to keep cross-home calls off the
	// loopback fast path.
	gw.SetHome(*home)
	if auth != nil {
		gw.SetAuth(auth)
	}
	gw.SetCacheTTL(*cacheTTL)
	gw.SetWatchEnabled(!*noWatch)
	gw.SetLoopbackEnabled(!*noLoopback)
	gw.SetBinaryEnabled(*binary)
	if *auditOn || *auditLog != "" {
		l, err := audit.New(audit.Options{Path: *auditLog, BatchSize: *auditBatch})
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		gw.SetAudit(l)
		if auth != nil {
			auth.SetRecorder(audit.WithFace(l, "auth", *home))
		}
	}
	if err := gw.Start(*addr); err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	mode := "watch-invalidated resolve cache"
	if *noWatch {
		mode = fmt.Sprintf("TTL resolve cache (%v)", *cacheTTL)
	}
	fmt.Printf("vsgd: gateway %q at %s (events at %s, %s)\n", *name, gw.BaseURL(), gw.EventsURL(), mode)
	if auth != nil {
		fmt.Printf("vsgd: authentication enforced as home %q; trusted homes: %v\n", *home, auth.TrustedHomes())
	}
	if *auditOn || *auditLog != "" {
		where := "in memory"
		if *auditLog != "" {
			where = *auditLog
		}
		fmt.Printf("vsgd: audit plane on (%s); health at %s/health, audit at %s/audit\n", where, gw.BaseURL(), gw.BaseURL())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var p pcm.PCM
	switch *middleware {
	case "", "none":
	case "jini":
		if *jiniLookup == "" {
			log.Fatal("vsgd: -jini-lookup is required for the jini PCM")
		}
		p = jinipcm.New(*jiniLookup)
	case "upnp":
		if *ssdp == "" {
			log.Fatal("vsgd: -ssdp is required for the upnp PCM")
		}
		p = upnppcm.New(upnppcm.Config{SSDPAddrs: strings.Split(*ssdp, ",")})
	case "mail":
		if *smtp == "" || *pop3 == "" || *mailbox == "" {
			log.Fatal("vsgd: -smtp, -pop3 and -mailbox are required for the mail PCM")
		}
		p = mailpcm.New(mailpcm.Config{SMTPAddr: *smtp, POP3Addr: *pop3, CommandAddr: *mailbox})
	default:
		log.Fatalf("vsgd: unknown middleware %q", *middleware)
	}
	if p != nil {
		if err := p.Start(ctx, gw); err != nil {
			log.Fatal(err)
		}
		defer func() { _ = p.Stop() }()
		fmt.Printf("vsgd: %s PCM attached\n", p.Middleware())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("vsgd: shutting down")
}
