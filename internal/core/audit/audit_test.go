package audit

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fill records n events into l with deterministic content.
func fill(t testing.TB, l *Log, n int) {
	t.Helper()
	l.nowFn = func() time.Time { return time.UnixMilli(1_700_000_000_000) }
	for i := 1; i <= n; i++ {
		l.Record(Event{
			Type:    PolicyDeny,
			Face:    "vsr",
			Home:    "home-a",
			Caller:  "home-b",
			Service: fmt.Sprintf("home-a/svc-%d", i),
			Pattern: "deny=*",
			Detail:  fmt.Sprintf("event-%d", i),
		})
	}
}

// persisted builds a log file with 10 records at batch size 4 (two
// sealed batches, two unsealed records), closes it, and returns the
// path.
func persisted(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fill(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// wantBatch asserts err is a VerifyError naming the given batch.
func wantBatch(t *testing.T, err error, batch int) {
	t.Helper()
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VerifyError, got %v", err)
	}
	if ve.Batch != batch {
		t.Fatalf("want offending batch %d, got %d (%v)", batch, ve.Batch, ve)
	}
}

func TestChainAndRoots(t *testing.T) {
	path := persisted(t)
	res, err := VerifyFile(path, 4)
	if err != nil {
		t.Fatalf("VerifyFile: %v", err)
	}
	if res.Records != 10 || res.Batches != 2 || res.Unsealed != 2 {
		t.Fatalf("want 10 records / 2 batches / 2 unsealed, got %+v", res)
	}
}

func TestVerifyDetectsFlippedByte(t *testing.T) {
	path := persisted(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 6 lives in batch 1 (records 5–8). Flip one byte of its
	// detail field.
	tampered := bytes.Replace(data, []byte("event-6"), []byte("event-X"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path, 4)
	wantBatch(t, err, 1)
}

func TestVerifyDetectsDroppedRecord(t *testing.T) {
	path := persisted(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.Contains(ln, "event-6") {
			continue
		}
		kept = append(kept, ln)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path, 4)
	wantBatch(t, err, 1)
}

func TestVerifyDetectsMidBatchTruncation(t *testing.T) {
	path := persisted(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file just before batch 1's root line: its four records are
	// all present, so offline replay sees a complete batch with no seal.
	i := bytes.Index(data, []byte(`{"root":{"batch":1`))
	if i < 0 {
		t.Fatal("root line for batch 1 not found")
	}
	if err := os.WriteFile(path, data[:i], 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path, 4)
	wantBatch(t, err, 1)
}

func TestOnlineVerifyDetectsTailTruncation(t *testing.T) {
	// Dropping unsealed tail records is invisible to an offline
	// VerifyFile of the shortened file — the live log must catch it.
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 10)
	if _, err := l.Verify(); err != nil {
		t.Fatalf("pre-tamper Verify: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the final line (record 10, unsealed).
	trimmed := bytes.TrimRight(data, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n')
	if err := os.Truncate(path, int64(cut+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path, 4); err != nil {
		t.Fatalf("offline verify of the shortened file should pass (that is the point): %v", err)
	}
	_, err = l.Verify()
	wantBatch(t, err, 2)
}

func TestReopenContinuesChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != 6 {
		t.Fatalf("reopened seq = %d, want 6", got)
	}
	fill(t, l2, 4) // seq 7–10, sealing batch 1 at seq 8
	res, err := l2.Verify()
	if err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
	if res.Records != 10 || res.Batches != 2 {
		t.Fatalf("want 10 records / 2 batches after reopen, got %+v", res)
	}
	if tail := l2.Tail(100, ""); len(tail) != 10 || tail[0].Seq != 1 || tail[9].Seq != 10 {
		t.Fatalf("reopened ring window wrong: %d records", len(tail))
	}
}

// TestReopenAfterLostFinalNewline: a crash that cuts only the trailing
// newline leaves a file replay accepts; the next record must still start
// a line of its own, or the following boot refuses the file.
func TestReopenAfterLostFinalNewline(t *testing.T) {
	path := persisted(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatalf("reopen without the final newline: %v", err)
	}
	fill(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyFile(path, 4)
	if err != nil {
		t.Fatalf("VerifyFile after one more record: %v", err)
	}
	if res.Records != 11 {
		t.Fatalf("VerifyFile counted %d records, want 11", res.Records)
	}
	l, err = New(Options{Path: path, BatchSize: 4})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	l.Close()
}

func TestReopenRefusesTamperedFile(t *testing.T) {
	path := persisted(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("event-2"), []byte("event-Z"), 1)
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Path: path, BatchSize: 4}); err == nil {
		t.Fatal("New should refuse to append to a tampered log")
	}
}

func TestMemoryVerifyAndRingEviction(t *testing.T) {
	l, err := New(Options{BatchSize: 4, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 20) // ring holds 13–20; batches 0–4 sealed, 1–2 evicted
	res, err := l.Verify()
	if err != nil {
		t.Fatalf("memory Verify: %v", err)
	}
	if res.Records != 20 {
		t.Fatalf("records = %d, want 20", res.Records)
	}
	// Batches 3 (13–16) and 4 (17–20) are fully resident and re-checked.
	if res.Batches != 2 {
		t.Fatalf("resident batches checked = %d, want 2", res.Batches)
	}
	tail := l.Tail(100, "")
	if len(tail) != 8 || tail[0].Seq != 13 || tail[7].Seq != 20 {
		t.Fatalf("ring window wrong: len %d", len(tail))
	}
	if roots := l.Roots(); len(roots) != 5 || roots[4].LastSeq != 20 {
		t.Fatalf("roots wrong: %+v", roots)
	}
}

func TestTailFilter(t *testing.T) {
	l, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.nowFn = func() time.Time { return time.UnixMilli(0) }
	l.Record(Event{Type: PeerConnect, Caller: "home-b"})
	l.Record(Event{Type: PolicyDeny, Caller: "home-b"})
	l.Record(Event{Type: PeerConnect, Caller: "home-c"})
	got := l.Tail(10, PeerConnect)
	if len(got) != 2 || got[0].Caller != "home-b" || got[1].Caller != "home-c" {
		t.Fatalf("filtered tail wrong: %+v", got)
	}
	if got := l.Tail(1, PeerConnect); len(got) != 1 || got[0].Caller != "home-c" {
		t.Fatalf("bounded filtered tail should keep the newest: %+v", got)
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Record(Event{Type: CallAdmit})
	if l.Seq() != 0 || l.Tail(5, "") != nil || l.Roots() != nil {
		t.Fatal("nil log should be inert")
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("nil Verify: %v", err)
	}
	if WithFace(nil, "x", "y") != nil {
		t.Fatal("WithFace(nil) should stay nil")
	}
}

func TestWithFaceStamps(t *testing.T) {
	var got Event
	r := WithFace(Func(func(ev Event) { got = ev }), "vsg:net1", "home-a")
	r.Record(Event{Type: CallAdmit, Service: "home-a/svc"})
	if got.Face != "vsg:net1" || got.Home != "home-a" {
		t.Fatalf("face/home not stamped: %+v", got)
	}
	r.Record(Event{Type: CallAdmit, Face: "explicit", Home: "other"})
	if got.Face != "explicit" || got.Home != "other" {
		t.Fatalf("explicit face/home should win: %+v", got)
	}
}
