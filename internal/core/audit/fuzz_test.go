package audit

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzAuditReplay runs boot-time replay (New with a Path) over hostile
// files. Any file either makes New fail or opens; a file that opens has
// as many records as VerifyFile counts, and still verifies after one
// more record. Seeds under testdata/fuzz/FuzzAuditReplay include a valid
// log, the same log without its final newline, CRLF line ends, a root
// line cut short and a dropped record.
func FuzzAuditReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "audit.log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		counted, verr := VerifyFile(path, 4)
		l, err := New(Options{Path: path, BatchSize: 4})
		if err != nil {
			return
		}
		defer l.Close()
		if verr != nil {
			t.Fatalf("New opened a file VerifyFile refuses: %v", verr)
		}
		if got := l.Seq(); got != counted.Records {
			t.Fatalf("opened at seq %d, VerifyFile counted %d records", got, counted.Records)
		}
		l.Record(Event{Type: CallAdmit, Caller: "home-b", Service: "svc", Op: "Ping"})
		res, err := l.Verify()
		if err != nil {
			t.Fatalf("Verify after one more record: %v", err)
		}
		if res.Records != counted.Records+1 {
			t.Fatalf("Verify counted %d records, want %d", res.Records, counted.Records+1)
		}
	})
}
