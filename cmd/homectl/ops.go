// Operability subcommands for homectl: render the home's /health and
// /audit faces (served by vsrd, vsgd and homesim beside their existing
// endpoints) for an operator terminal. In an authenticated home these
// faces are private to the home's own identity, so pass the same
// -identity file the daemons run with.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/core/peer"
)

// opsBase derives the face root from the -vsr URL: /health and /audit
// are mounted beside /uddi on the same listener.
func opsBase(vsrURL string) string {
	return strings.TrimSuffix(strings.TrimRight(vsrURL, "/"), "/uddi")
}

// opsGet fetches one face of the -vsr member, signing the request when
// -identity is set.
func (c *ctl) opsGet(ctx context.Context, face string) ([]byte, error) {
	faceURL := opsBase(c.opsURL) + face
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, faceURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", faceURL, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// health prints the /health snapshot as served: it is already indented
// JSON, and each deployment shape (vsrd, homesim federation, vsgd)
// reports its own layout. An audit persistence failure is surfaced as a
// loud warning on stderr so it cannot hide inside the JSON.
func (c *ctl) health(ctx context.Context) error {
	body, err := c.opsGet(ctx, "/health")
	if err != nil {
		return err
	}
	c.stdout.Write(body)
	var report struct {
		Audit audit.Stats `json:"audit"`
	}
	if json.Unmarshal(body, &report) == nil && report.Audit.WriteError != "" {
		fmt.Fprintf(c.stderr, "\nhomectl: AUDIT WRITE ERROR — the log keeps recording in memory but %s is incomplete: %s\n",
			dash(report.Audit.Path), report.Audit.WriteError)
	}
	c.warnReplicationLag(body)
	return nil
}

// replicationReport is the slice of /health the replication widgets
// read: the node's role block plus the durable registry's snapshot
// interval (the lag-warning yardstick).
type replicationReport struct {
	Replication *struct {
		Role      string `json:"role"`
		Epoch     uint64 `json:"epoch"`
		Leader    string `json:"leader"`
		Seq       uint64 `json:"seq"`
		Lag       uint64 `json:"lag"`
		Attached  bool   `json:"attached"`
		LastError string `json:"last_error"`
	} `json:"replication"`
	Durability *struct {
		SnapshotEvery int `json:"snapshot_every"`
	} `json:"durability"`
}

// warnReplicationLag shouts on stderr when a replica has fallen further
// behind its leader than one snapshot interval: past that point a feed
// interruption risks a full resync instead of a journal catch-up.
func (c *ctl) warnReplicationLag(body []byte) {
	var r replicationReport
	if json.Unmarshal(body, &r) != nil || r.Replication == nil || r.Replication.Role != "replica" {
		return
	}
	interval := uint64(1024) // registry default snapshot interval
	if r.Durability != nil && r.Durability.SnapshotEvery > 0 {
		interval = uint64(r.Durability.SnapshotEvery)
	}
	if r.Replication.Lag > interval {
		fmt.Fprintf(c.stderr, "\nhomectl: REPLICATION LAG — replica is %d changes behind %s (snapshot interval %d); a feed interruption now forces a full resync\n",
			r.Replication.Lag, dash(r.Replication.Leader), interval)
	}
}

// peers renders the peering section of /health as a table, one row per
// replication link.
func (c *ctl) peers(ctx context.Context) error {
	body, err := c.opsGet(ctx, "/health")
	if err != nil {
		return err
	}
	var report struct {
		Peers map[string]peer.Status `json:"peers"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		return err
	}
	c.printReplication(body)
	if len(report.Peers) == 0 {
		fmt.Fprintln(c.stdout, "no peer links")
		return nil
	}
	names := make([]string, 0, len(report.Peers))
	for name := range report.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	// PROTO sits after RESYNCS: scripts address the earlier columns by
	// position (the soak job's awk does), so new columns append.
	fmt.Fprintf(c.stdout, "%-12s %-6s %-5s %-8s %-7s %-7s %-7s %-6s %s\n", "PEER", "STATE", "AUTH", "IMPORTED", "APPLIED", "CURSOR", "RESYNCS", "PROTO", "DETAIL")
	for _, name := range names {
		st := report.Peers[name]
		state, auth := "down", "-"
		if st.Connected {
			state = "up"
		}
		if st.Authenticated {
			auth = "yes"
		}
		detail := st.URL
		if st.LastError != "" {
			detail = st.LastError
		}
		label := st.RemoteHome
		if label == "" {
			label = name
		}
		fmt.Fprintf(c.stdout, "%-12s %-6s %-5s %-8d %-7d %-7d %-7d %-6s %s\n", label, state, auth, st.Imported, st.Applied, st.Cursor, st.Resyncs, dash(st.Proto), detail)
	}
	return nil
}

// auditCmd renders the /audit face: log stats, the verification verdict
// when asked for, and the newest records oldest-first.
func (c *ctl) auditCmd(ctx context.Context, n int, verify bool) error {
	q := url.Values{}
	q.Set("n", strconv.Itoa(n))
	if verify {
		q.Set("verify", "1")
	}
	body, err := c.opsGet(ctx, "/audit?"+q.Encode())
	if err != nil {
		return err
	}
	var snap ops.AuditSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return err
	}
	if !snap.Enabled {
		if verify {
			return errors.New("audit verify: auditing is off")
		}
		fmt.Fprintln(c.stdout, "auditing is off (start the daemon with -audit or -audit-log)")
		return nil
	}
	where := "in memory"
	if snap.Stats.Path != "" {
		where = snap.Stats.Path
	}
	fmt.Fprintf(c.stdout, "audit: %d records, %d sealed batches of %d (%s)\n",
		snap.Stats.Seq, snap.Stats.Batches, snap.Stats.BatchSize, where)
	if snap.Stats.LastRoot != "" {
		fmt.Fprintf(c.stdout, "last root: %s\n", snap.Stats.LastRoot)
	}
	if snap.Stats.WriteError != "" {
		fmt.Fprintf(c.stdout, "WRITE ERROR: %s\n", snap.Stats.WriteError)
	}
	if verify {
		if snap.Verify == nil {
			return errors.New("face did not return a verification result")
		}
		if !snap.Verify.OK {
			fmt.Fprintf(c.stdout, "verify: FAILED — %s\n", snap.Verify.Error)
			return errors.New("audit chain verification failed")
		}
		fmt.Fprintf(c.stdout, "verify: OK — chain covers %d records, %d sealed roots recomputed, %d unsealed\n",
			snap.Verify.Records, snap.Verify.Batches, snap.Verify.Unsealed)
	}
	if len(snap.Tail) == 0 {
		return nil
	}
	fmt.Fprintf(c.stdout, "%5s %-12s %-14s %-10s %-12s %-24s %s\n", "SEQ", "TIME", "TYPE", "FACE", "CALLER", "SERVICE", "DETAIL")
	for _, rec := range snap.Tail {
		fmt.Fprintf(c.stdout, "%5d %-12s %-14s %-10s %-12s %-24s %s\n",
			rec.Seq, rec.Time().Format("15:04:05.000"), rec.Type, rec.Face,
			dash(rec.Caller), dash(rec.Service), auditDetail(rec))
	}
	return nil
}

// printReplication renders the repository's replica-set role above the
// peer table when /health carries a replication block: the peer links
// below all ride whichever member this is, so the role frames the table.
func (c *ctl) printReplication(body []byte) {
	var r replicationReport
	if json.Unmarshal(body, &r) != nil || r.Replication == nil {
		return
	}
	st := r.Replication
	fmt.Fprintf(c.stdout, "%-8s %-6s %-5s %s\n", "ROLE", "EPOCH", "LAG", "LEADER")
	detail := st.Leader
	if st.Role == "replica" && !st.Attached {
		detail += " (attaching)"
	}
	if st.LastError != "" {
		detail += " — " + st.LastError
	}
	fmt.Fprintf(c.stdout, "%-8s %-6d %-5d %s\n\n", st.Role, st.Epoch, st.Lag, dash(detail))
	c.warnReplicationLag(body)
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// auditDetail folds the operation and matched pattern into the free-form
// detail column so deny records show what rule fired.
func auditDetail(rec audit.Record) string {
	var parts []string
	if rec.Op != "" {
		parts = append(parts, "op "+rec.Op)
	}
	if rec.Pattern != "" {
		parts = append(parts, "rule "+rec.Pattern)
	}
	if rec.Detail != "" {
		parts = append(parts, rec.Detail)
	}
	return strings.Join(parts, "; ")
}
