package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// runCtl runs one homectl command line and returns its exit status and
// output streams.
func runCtl(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// saveIdentity writes a fresh identity for home into dir.
func saveIdentity(t *testing.T, dir, home string) (*identity.Identity, string) {
	t.Helper()
	id, err := identity.Generate(home)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, home+".id")
	if err := id.Save(path); err != nil {
		t.Fatal(err)
	}
	return id, path
}

func TestRunErrorPaths(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Nothing listens on port 1 of the loopback host.
	const nowhere = "http://127.0.0.1:1/uddi"
	missing := filepath.Join(t.TempDir(), "missing.id")
	cases := []struct {
		name string
		args []string
		code int
		want string // a fragment of stderr
	}{
		{"no command", nil, 2, "usage: homectl"},
		{"unknown command", []string{"frobnicate"}, 2, "usage: homectl"},
		{"describe without an ID", []string{"describe"}, 2, "usage: homectl"},
		{"scene without a subcommand", []string{"scene"}, 2, "usage: homectl [-vsr URL] scene"},
		{"unknown flag", []string{"-frobnicate", "list"}, 2, "flag provided but not defined"},
		{"-trust without -identity", []string{"-trust", "cottage=2b7e", "list"}, 1, "-trust requires -identity"},
		{"unreadable identity file", []string{"-identity", missing, "list"}, 1, "identity: load"},
		{"unreachable -vsr", []string{"-vsr", nowhere, "-timeout", "5s", "list"}, 1, "homectl: vsr: find"},
		{"describe of a missing service", []string{"-vsr", srv.URL(), "describe", "x10:ghost"}, 1, service.ErrNoSuchService.Error()},
		{"health without operability faces", []string{"-vsr", srv.URL(), "health"}, 1, "404 Not Found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCtl(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q, want it to contain %q", stderr, tc.want)
			}
		})
	}
}

// TestRunAuditOff: against a repository with auditing off, audit says
// so and succeeds, while audit verify fails: there is no chain to prove.
func TestRunAuditOff(t *testing.T) {
	srv, err := vsr.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.MountOps(ops.HealthHandler(func() any { return nil }),
		ops.AuditHandler(func() *audit.Log { return nil }))
	t.Run("audit", func(t *testing.T) {
		code, stdout, stderr := runCtl("-vsr", srv.URL(), "audit")
		if code != 0 || !strings.Contains(stdout, "auditing is off") {
			t.Errorf("exit %d, stdout %q, stderr %q; want 0 and \"auditing is off\"", code, stdout, stderr)
		}
	})
	t.Run("verify", func(t *testing.T) {
		code, _, stderr := runCtl("-vsr", srv.URL(), "audit", "verify")
		if want := "homectl: audit verify: auditing is off"; code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("exit %d, stderr %q; want 1 and %q", code, stderr, want)
		}
	})
}

// TestRunSignedList: with -identity, repository traffic is signed as the
// home and a repository that refuses unsigned requests answers it.
func TestRunSignedList(t *testing.T) {
	id, idFile := saveIdentity(t, t.TempDir(), "cottage")
	auth := identity.NewAuth("cottage")
	if err := auth.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	srv, err := vsr.StartServerAuth("127.0.0.1:0", auth)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	desc := service.Description{ID: "x10:lamp-1", Name: "lamp", Middleware: "x10",
		Interface: service.Interface{Name: "Lamp", Operations: []service.Operation{{Name: "On", Output: service.KindVoid}}}}
	repo := vsr.New(srv.URL())
	repo.SetDialer(transport.NewDialer(auth))
	if _, err := repo.Register(context.Background(), desc, "http://127.0.0.1:1/services/x10:lamp-1"); err != nil {
		t.Fatal(err)
	}

	if code, _, stderr := runCtl("-vsr", srv.URL(), "list"); code != 1 || !strings.Contains(stderr, "unauthenticated") {
		t.Errorf("unsigned list: exit %d, stderr %q; want 1 and a refusal", code, stderr)
	}
	code, stdout, stderr := runCtl("-vsr", srv.URL(), "-identity", idFile, "list")
	if code != 0 || !strings.Contains(stdout, "x10:lamp-1") {
		t.Errorf("signed list: exit %d, stdout %q, stderr %q; want 0 and the lamp", code, stdout, stderr)
	}
}
