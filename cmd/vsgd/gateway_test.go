// Tests for vsgd's gateway assembly: flag validation and one start
// against an in-process repository.
package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
)

// base is a valid configuration that starts nothing outside the test:
// no PCM, an ephemeral listener.
func base(vsrURL string) config {
	return config{vsrURL: vsrURL, name: "test-net", addr: "127.0.0.1:0",
		cacheTTL: 2 * time.Second, binary: true, middleware: "none"}
}

func TestStartGatewayRejectsBadFlags(t *testing.T) {
	idFile := filepath.Join(t.TempDir(), "cottage.id")
	id, err := identity.Generate("cottage")
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Save(idFile); err != nil {
		t.Fatal(err)
	}
	// Nothing listens at this repository: every case must fail on its
	// flags before the gateway would need one.
	const nowhere = "http://127.0.0.1:1/uddi"
	cases := []struct {
		name string
		edit func(*config)
		want string // a fragment of the error
	}{
		{"missing -name", func(c *config) { c.name = "" }, "-name is required"},
		{"unknown -middleware", func(c *config) { c.middleware = "corba" }, `unknown middleware "corba"`},
		{"jini without -jini-lookup", func(c *config) { c.middleware = "jini" }, "-jini-lookup is required"},
		{"upnp without -ssdp", func(c *config) { c.middleware = "upnp" }, "-ssdp is required"},
		{"mail without -smtp", func(c *config) {
			c.middleware, c.pop3, c.mailbox = "mail", "127.0.0.1:2110", "home@house.example"
		}, "-smtp, -pop3 and -mailbox are required"},
		{"mail without -pop3", func(c *config) {
			c.middleware, c.smtp, c.mailbox = "mail", "127.0.0.1:2525", "home@house.example"
		}, "-smtp, -pop3 and -mailbox are required"},
		{"mail without -mailbox", func(c *config) {
			c.middleware, c.smtp, c.pop3 = "mail", "127.0.0.1:2525", "127.0.0.1:2110"
		}, "-smtp, -pop3 and -mailbox are required"},
		{"-identity without -home", func(c *config) { c.idFile = idFile }, "-identity requires -home"},
		{"-identity and -trust without -home", func(c *config) {
			c.idFile, c.trust = idFile, []string{"apartment=2b7e"}
		}, "-identity requires -home"},
		{"-trust without -identity or -home", func(c *config) { c.trust = []string{"apartment=2b7e"} }, "require -identity"},
		{"-acl-deny without -identity", func(c *config) { c.aclDeny = []string{"*=x10:*"} }, "require -identity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(nowhere)
			tc.edit(&cfg)
			g, err := startGateway(cfg)
			if err == nil {
				g.Close()
				t.Fatal("started")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestStartGatewayWatchesRepository(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := base(srv.URL())
	cfg.auditOn = true
	g, err := startGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.pcm != nil || g.audit == nil || g.Auth() != nil {
		t.Fatalf("assembly: pcm %v, audit %v, auth %v; want no PCM, an audit log, open mode", g.pcm, g.audit, g.Auth())
	}
	deadline := time.Now().Add(5 * time.Second)
	for !g.Health().WatchActive {
		if time.Now().After(deadline) {
			t.Fatalf("watch never came up: %+v", g.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
