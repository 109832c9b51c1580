// Audit plane end to end: a two-home authenticated neighborhood where
// home A runs the audit log. An ACL-denied cross-home call must produce
// a typed fault naming the matched rule, land in A's audit log as a
// policy.deny record carrying the caller and the rule, and be readable
// over the authenticated /audit face — whose ?verify=1 walk recomputes
// the whole hash chain. This is the PR-6 acceptance scenario.
package integration

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// opsBase strips the /uddi suffix off a repository URL, the same
// derivation homectl uses to find the /health and /audit faces.
func opsBase(vsrURL string) string {
	return strings.TrimSuffix(strings.TrimRight(vsrURL, "/"), "/uddi")
}

// opsGetJSON fetches one face with the given client and decodes it.
func opsGetJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decode: %v\n%s", url, err, body)
	}
}

func TestAuditDenyRoundTrip(t *testing.T) {
	a := newSecureFed(t, "home-a")
	b := newSecureFed(t, "home-b")
	a.trust(t, b)
	b.trust(t, a)
	if err := a.fed.EnableAudit(audit.Options{}); err != nil {
		t.Fatal(err)
	}
	a.fed.SetServiceACL(identity.ACL{
		Deny: []identity.Rule{{Caller: "home-b", Service: "test:vcr-*"}},
	})
	// Peer both directions so A's own import link records peer.connect
	// into A's log.
	if err := b.fed.Peer(a.fed.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if err := a.fed.Peer(b.fed.PeerURL()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gw := a.fed.Network("net1").Gateway()
	for id, answer := range map[string]string{
		"test:public-door": "public",
		"test:vcr-1":       "vcr",
	} {
		if err := gw.Export(ctx, echoDesc(id), echoInvoker(answer)); err != nil {
			t.Fatal(err)
		}
	}
	callUntil(t, b.fed, "home-a/test:public-door", "public", 10*time.Second)

	// The ACL-denied out-of-band call faults typed, and the fault names
	// the matched rule and the denied caller (satellite 1).
	remote, err := gw.Resolve(ctx, "test:vcr-1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.fed.Network("net1").Gateway().CallRemote(ctx, remote, "Where", nil)
	if !errors.Is(err, service.ErrForbidden) {
		t.Fatalf("ACL-denied call: %v, want ErrForbidden", err)
	}
	for _, want := range []string{"home-b", "home-b=test:vcr-*"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("denial fault %q does not name %q", err, want)
		}
	}

	// The denial is in A's audit log with caller and matched pattern.
	var deny *audit.Record
	deadline := time.Now().Add(10 * time.Second)
	for deny == nil {
		for _, rec := range a.fed.Audit().Tail(100, audit.PolicyDeny) {
			rec := rec
			if rec.Caller == "home-b" && rec.Service == "test:vcr-1" {
				deny = &rec
				break
			}
		}
		if deny == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no policy.deny record for home-b/test:vcr-1 in %+v",
					a.fed.Audit().Tail(100, ""))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if deny.Pattern != "home-b=test:vcr-*" {
		t.Errorf("deny record pattern %q, want the matched ACL rule", deny.Pattern)
	}

	// A's import link from B recorded its connect transition.
	for {
		if len(a.fed.Audit().Tail(100, audit.PeerConnect)) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no peer.connect record on home-a's side")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// HTTP round trip: the repository's /audit face returns the same
	// records, and ?verify=1 recomputes the chain and roots.
	client := transport.NewDialer(a.fed.Auth()).HTTPClient()
	var snap ops.AuditSnapshot
	opsGetJSON(t, client, opsBase(a.fed.VSRURL())+"/audit?n=200&verify=1", &snap)
	if !snap.Enabled {
		t.Fatal("/audit reports auditing off")
	}
	if snap.Verify == nil || !snap.Verify.OK {
		t.Fatalf("/audit?verify=1 = %+v, want OK", snap.Verify)
	}
	foundDeny, foundConnect := false, false
	for _, rec := range snap.Tail {
		if rec.Type == audit.PolicyDeny && rec.Caller == "home-b" &&
			rec.Service == "test:vcr-1" && rec.Pattern == "home-b=test:vcr-*" {
			foundDeny = true
		}
		if rec.Type == audit.PeerConnect {
			foundConnect = true
		}
	}
	if !foundDeny {
		t.Errorf("/audit tail lacks the policy.deny record: %+v", snap.Tail)
	}
	if !foundConnect {
		t.Errorf("/audit tail lacks a peer.connect record")
	}

	// /health reports the home, its auth state and the audit stats.
	var health struct {
		Home        string      `json:"home"`
		AuthEnabled bool        `json:"auth_enabled"`
		Audit       audit.Stats `json:"audit"`
	}
	opsGetJSON(t, client, opsBase(a.fed.VSRURL())+"/health", &health)
	if health.Home != "home-a" || !health.AuthEnabled {
		t.Errorf("/health = %+v, want home-a with auth enabled", health)
	}
	if health.Audit.Seq == 0 {
		t.Error("/health audit stats report an empty log")
	}

	// The gateway serves the same faces; its health carries call stats
	// including the denied call.
	var gwHealth struct {
		Network string `json:"network"`
		Health  struct {
			Calls struct {
				Denied uint64 `json:"denied"`
			} `json:"calls"`
		} `json:"health"`
	}
	opsGetJSON(t, client, gw.BaseURL()+"/health", &gwHealth)
	if gwHealth.Network != "net1" {
		t.Errorf("gateway /health network %q, want net1", gwHealth.Network)
	}
	if gwHealth.Health.Calls.Denied == 0 {
		t.Error("gateway /health counts no denied calls after the ACL denial")
	}

	// The faces are private to the home's own identity: an unsigned GET
	// is refused, and so is a signed GET from the *other* home.
	for name, c := range map[string]*http.Client{
		"unsigned":     http.DefaultClient,
		"other-signed": transport.NewDialer(b.fed.Auth()).HTTPClient(),
	} {
		resp, err := c.Get(opsBase(a.fed.VSRURL()) + "/audit")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s GET of the private /audit face succeeded", name)
		}
	}
}
