package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"homeconnect/internal/bridge/jinipcm"
	"homeconnect/internal/bridge/mailpcm"
	"homeconnect/internal/bridge/upnppcm"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/vsg"
)

// config is vsgd's command line.
type config struct {
	vsrURL, name, addr       string
	cacheTTL                 time.Duration
	noWatch                  bool
	binary                   bool
	home, idFile             string
	auditOn                  bool
	auditLog                 string
	auditBatch               int
	trust, aclAllow, aclDeny []string
	middleware               string
	jiniLookup, ssdp         string
	smtp, pop3, mailbox      string
}

// gateway is a running vsgd: the gateway plus what it owns.
type gateway struct {
	*vsg.VSG
	pcm   pcm.PCM    // nil with -middleware none
	audit *audit.Log // nil without -audit/-audit-log
}

// Close detaches the PCM, stops the gateway and closes the audit log.
func (g *gateway) Close() {
	if g.pcm != nil {
		_ = g.pcm.Stop()
	}
	g.VSG.Close()
	if g.audit != nil {
		g.audit.Close()
	}
}

// startGateway validates cfg, starts the gateway and attaches the
// requested PCM. Every flag error is reported before anything starts.
func startGateway(cfg config) (*gateway, error) {
	if cfg.name == "" {
		return nil, fmt.Errorf("vsgd: -name is required")
	}
	p, err := buildPCM(cfg)
	if err != nil {
		return nil, err
	}
	auth, err := buildAuth(cfg.home, cfg.idFile, cfg.trust, cfg.aclAllow, cfg.aclDeny)
	if err != nil {
		return nil, err
	}

	gw := vsg.New(cfg.name, cfg.vsrURL)
	// In a federated deployment (vsrd -home) peers address this gateway
	// by the home's scoped IDs; the gateway must know its home to strip
	// that scope on inbound calls and to keep cross-home calls off the
	// loopback fast path.
	gw.SetHome(cfg.home)
	if auth != nil {
		gw.SetAuth(auth)
	}
	gw.SetCacheTTL(cfg.cacheTTL)
	gw.SetWatchEnabled(!cfg.noWatch)
	gw.SetBinaryEnabled(cfg.binary)
	g := &gateway{VSG: gw}
	if cfg.auditOn || cfg.auditLog != "" {
		l, err := audit.New(audit.Options{Path: cfg.auditLog, BatchSize: cfg.auditBatch})
		if err != nil {
			return nil, err
		}
		g.audit = l
		gw.SetAudit(l)
		if auth != nil {
			auth.SetRecorder(audit.WithFace(l, "auth", cfg.home))
		}
	}
	if err := gw.Start(cfg.addr); err != nil {
		g.Close()
		return nil, err
	}
	if p != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := p.Start(ctx, gw); err != nil {
			g.Close()
			return nil, err
		}
		g.pcm = p
	}
	return g, nil
}

// buildPCM returns the PCM -middleware names, unstarted (nil for none).
func buildPCM(cfg config) (pcm.PCM, error) {
	switch cfg.middleware {
	case "", "none":
		return nil, nil
	case "jini":
		if cfg.jiniLookup == "" {
			return nil, fmt.Errorf("vsgd: -jini-lookup is required for the jini PCM")
		}
		return jinipcm.New(cfg.jiniLookup), nil
	case "upnp":
		if cfg.ssdp == "" {
			return nil, fmt.Errorf("vsgd: -ssdp is required for the upnp PCM")
		}
		return upnppcm.New(upnppcm.Config{SSDPAddrs: strings.Split(cfg.ssdp, ",")}), nil
	case "mail":
		if cfg.smtp == "" || cfg.pop3 == "" || cfg.mailbox == "" {
			return nil, fmt.Errorf("vsgd: -smtp, -pop3 and -mailbox are required for the mail PCM")
		}
		return mailpcm.New(mailpcm.Config{SMTPAddr: cfg.smtp, POP3Addr: cfg.pop3, CommandAddr: cfg.mailbox}), nil
	default:
		return nil, fmt.Errorf("vsgd: unknown middleware %q", cfg.middleware)
	}
}

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
