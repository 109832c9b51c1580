// Tests for vsrd's server assembly: peering wire-up and flag validation.
package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

func TestStartServerRejectsPeerFlagsWithoutHome(t *testing.T) {
	if _, err := startServer(config{addr: "127.0.0.1:0", peers: []string{"http://x/peer"}}); err == nil ||
		!strings.Contains(err.Error(), "-peer") || !strings.Contains(err.Error(), "require -home") {
		t.Errorf("peers without -home: err = %v, want the flags named", err)
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", deny: []string{"x10:*"}}); err == nil {
		t.Error("export policy without -home accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", idFile: "x.id"}); err == nil ||
		!strings.Contains(err.Error(), "-identity") {
		t.Errorf("-identity without -home: err = %v, want the flag named", err)
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", trust: []string{"a=bb"}}); err == nil {
		t.Error("-trust without -home accepted")
	}
}

func TestStartServerArmsIdentity(t *testing.T) {
	idFile := filepath.Join(t.TempDir(), "cottage.id")
	s, err := startServer(config{
		addr: "127.0.0.1:0", home: "cottage", idFile: idFile,
		aclDeny: []string{"*=x10:*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.identity == nil || !s.identityGenerated || s.identity.Home() != "cottage" {
		t.Fatalf("identity not generated: %+v generated=%v", s.identity, s.identityGenerated)
	}
	if !s.Auth().Enabled() {
		t.Error("auth not enabled with -identity")
	}
	// Unsigned requests are refused on every face.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := vsr.New(s.URL()).Find(ctx, vsr.Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned find against armed vsrd: %v, want ErrUnauthenticated", err)
	}
	// A second start reloads the same identity.
	s2, err := startServer(config{addr: "127.0.0.1:0", home: "cottage", idFile: idFile})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.identityGenerated || s2.identity.PublicKey() != s.identity.PublicKey() {
		t.Errorf("identity not reloaded: generated=%v", s2.identityGenerated)
	}
	// Malformed trust/ACL specs are refused.
	if _, err := startServer(config{addr: "127.0.0.1:0", home: "x", idFile: filepath.Join(t.TempDir(), "x.id"), trust: []string{"no-separator"}}); err == nil {
		t.Error("malformed trust spec accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", home: "x", idFile: filepath.Join(t.TempDir(), "x.id"), aclAllow: []string{"="}}); err == nil {
		t.Error("malformed ACL spec accepted")
	}
}

func TestStartServerRejectsDurabilityFlagsWithoutDataDir(t *testing.T) {
	for _, cfg := range []config{
		{addr: "127.0.0.1:0", fsync: "off"},
		{addr: "127.0.0.1:0", snapshotEvery: 16},
		{addr: "127.0.0.1:0", fsync: "always", replicaOf: "127.0.0.1:1"},
	} {
		if _, err := startServer(cfg); err == nil || !strings.Contains(err.Error(), "require -data-dir") {
			t.Errorf("fsync %q, snapshot-every %d without -data-dir: err = %v", cfg.fsync, cfg.snapshotEvery, err)
		}
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", dataDir: t.TempDir(), fsync: "sometimes"}); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// TestKillRestartServesPreCrashState is the daemon-level acceptance
// scenario: a durable vsrd killed without ceremony and restarted over
// the same -data-dir serves every acknowledged registration, and its
// sequence numbers continue where they left off.
func TestKillRestartServesPreCrashState(t *testing.T) {
	dir := t.TempDir()
	cfg := config{addr: "127.0.0.1:0", dataDir: dir, fsync: "off"}
	s, err := startServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := vsr.New(s.URL())
	for _, id := range []string{"jini:laserdisc-1", "havi:dvcam-1", "upnp:tv-1"} {
		desc := service.Description{
			ID: id, Name: id, Middleware: "jini",
			Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
				{Name: "Ping", Output: service.KindVoid},
			}},
		}
		if _, err := c.Register(ctx, desc, "http://gw/services/"+id); err != nil {
			t.Fatal(err)
		}
	}
	preSeq := s.Registry().Seq()
	if d := s.Registry().Durability(); !d.Enabled || d.Appends == 0 {
		t.Fatalf("durability not armed: %+v", d)
	}

	// Kill: close the WAL fd with no sync, no marker, no shutdown event.
	s.Registry().CrashClose()
	s.Close()

	// Restart over the same directory.
	s2, err := startServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Shutdown()
	rec := s2.Registry().Recovery()
	if rec.CleanShutdown {
		t.Fatalf("kill -9 recorded as clean shutdown: %+v", rec)
	}
	if s2.Registry().Seq() < preSeq {
		t.Fatalf("seq regressed across restart: %d < %d", s2.Registry().Seq(), preSeq)
	}
	c2 := vsr.New(s2.URL())
	for _, id := range []string{"jini:laserdisc-1", "havi:dvcam-1", "upnp:tv-1"} {
		if _, err := c2.Lookup(ctx, id); err != nil {
			t.Errorf("pre-crash registration %s lost: %v", id, err)
		}
	}
	// New registrations keep the sequence monotone.
	desc := service.Description{
		ID: "x10:lamp-1", Name: "lamp", Middleware: "x10",
		Interface: service.Interface{Name: "Lamp", Operations: []service.Operation{
			{Name: "On", Output: service.KindVoid},
		}},
	}
	if _, err := c2.Register(ctx, desc, "http://gw/services/x10:lamp-1"); err != nil {
		t.Fatal(err)
	}
	if s2.Registry().Seq() <= preSeq {
		t.Fatalf("post-restart registration did not advance seq past %d", preSeq)
	}

	// A graceful stop marks the WAL; the third boot skips recovery.
	s2.Shutdown()
	s3, err := startServer(cfg)
	if err != nil {
		t.Fatalf("boot after graceful stop: %v", err)
	}
	defer s3.Shutdown()
	rec = s3.Registry().Recovery()
	if !rec.CleanShutdown || rec.TornTail {
		t.Fatalf("graceful stop not detected on next boot: %+v", rec)
	}
	if _, err := vsr.New(s3.URL()).Lookup(ctx, "x10:lamp-1"); err != nil {
		t.Errorf("registration lost across graceful restart: %v", err)
	}
}

func TestStartServerPeersTwoRepositories(t *testing.T) {
	a, err := startServer(config{addr: "127.0.0.1:0", home: "home-a", deny: []string{"x10:*"}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := startServer(config{addr: "127.0.0.1:0", home: "home-b", peers: []string{a.PeerURL()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	desc := service.Description{
		ID: "jini:laserdisc-1", Name: "laserdisc", Middleware: "jini",
		Interface: service.Interface{Name: "Laserdisc", Operations: []service.Operation{
			{Name: "Play", Output: service.KindVoid},
		}},
	}
	va := vsr.New(a.URL())
	if _, err := va.Register(ctx, desc, "http://gw-a/services/jini:laserdisc-1"); err != nil {
		t.Fatal(err)
	}
	denied := desc
	denied.ID, denied.Name = "x10:lamp-1", "lamp"
	if _, err := va.Register(ctx, denied, "http://gw-a/services/x10:lamp-1"); err != nil {
		t.Fatal(err)
	}

	vb := vsr.New(b.URL())
	for {
		if _, err := vb.Lookup(ctx, "home-a/jini:laserdisc-1"); err == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("replication to vsrd peer never happened")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := vb.Lookup(ctx, "home-a/x10:lamp-1"); err == nil {
		t.Error("export-denied service replicated")
	}
}

// TestReplicaAttachesLargeRegistryOverBinary starts two real members on
// loopback with the binary fast path on. The leader holds 5000 device
// entries, over 4 MiB encoded: more than one HCB1 frame may carry and
// more than one HTTP response may. The replica must attach over HCB1
// and hold every entry.
func TestReplicaAttachesLargeRegistryOverBinary(t *testing.T) {
	leader, err := startServer(config{addr: "127.0.0.1:0", binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev%d:d-%05d", i%8, i)
		e, err := vsr.EntryFor(service.Description{
			ID: id, Name: id, Middleware: fmt.Sprintf("dev%d", i%8),
			Interface: service.Interface{Name: "Switch", Operations: []service.Operation{
				{Name: "Set", Inputs: []service.Parameter{{Name: "on", Type: service.KindBool}}, Output: service.KindVoid},
			}},
		}, "http://127.0.0.1:9/services/"+id)
		if err != nil {
			t.Fatal(err)
		}
		leader.Registry().Save(e, time.Hour)
	}
	replica, err := startServer(config{addr: "127.0.0.1:0", binary: true, replicaOf: leader.URL()})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if replica.replicationWarn != nil {
		t.Fatalf("attach failed: %v", replica.replicationWarn)
	}
	if got := replica.Registry().Len(); got != n {
		t.Fatalf("replica holds %d of %d entries", got, n)
	}
	st := replica.node.Status()
	if !st.Attached || st.Proto != "binary" || st.Seq != leader.Registry().Seq() {
		t.Fatalf("replica status %+v, want attached over binary at the leader's seq %d", st, leader.Registry().Seq())
	}
}
