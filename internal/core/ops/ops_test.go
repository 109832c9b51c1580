package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"homeconnect/internal/core/audit"
)

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

// auditGet decodes one GET /audit response.
func auditGet(t *testing.T, h http.Handler, target string) AuditSnapshot {
	t.Helper()
	rec := serve(h, http.MethodGet, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
	}
	var snap AuditSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET %s: decode: %v", target, err)
	}
	return snap
}

// newLog returns an in-memory log holding n records, every third one a
// policy denial and the rest call admits.
func newLog(t *testing.T, n int) *audit.Log {
	t.Helper()
	l, err := audit.New(audit.Options{RingSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		typ := audit.CallAdmit
		if i%3 == 0 {
			typ = audit.PolicyDeny
		}
		l.Record(audit.Event{Type: typ, Caller: "home-" + strconv.Itoa(i)})
	}
	return l
}

func TestFacesAreGetOnly(t *testing.T) {
	l := newLog(t, 3)
	faces := map[string]http.Handler{
		"health": HealthHandler(func() any { return map[string]int{"up": 1} }),
		"audit":  AuditHandler(func() *audit.Log { return l }),
	}
	for name, h := range faces {
		for _, m := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			if rec := serve(h, m, "/"+name); rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", m, name, rec.Code)
			}
		}
		if rec := serve(h, http.MethodGet, "/"+name); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", name, rec.Code)
		}
	}
	rec := serve(faces["health"], http.MethodGet, "/health")
	var got map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got["up"] != 1 {
		t.Errorf("health body %q (err %v), want the snapshot", rec.Body, err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("health content type %q", ct)
	}
}

func TestAuditTailBound(t *testing.T) {
	l := newLog(t, 1500)
	h := AuditHandler(func() *audit.Log { return l })
	cases := []struct {
		query string
		want  int
	}{
		{"", defaultTail},
		{"?n=", defaultTail},
		{"?n=0", defaultTail},
		{"?n=-3", defaultTail},
		{"?n=lots", defaultTail},
		{"?n=5", 5},
		{"?n=5000", maxTail},
	}
	for _, c := range cases {
		snap := auditGet(t, h, "/audit"+c.query)
		if len(snap.Tail) != c.want {
			t.Errorf("%q: tail of %d, want %d", c.query, len(snap.Tail), c.want)
		}
		if !snap.Enabled || snap.Stats.Seq != 1500 {
			t.Errorf("%q: enabled %v, seq %d", c.query, snap.Enabled, snap.Stats.Seq)
		}
	}
}

func TestAuditNilLogIsDisabled(t *testing.T) {
	h := AuditHandler(func() *audit.Log { return nil })
	rec := serve(h, http.MethodGet, "/audit?n=10&verify=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if string(body["enabled"]) != "false" {
		t.Errorf("enabled = %s, want false", body["enabled"])
	}
	for _, k := range []string{"tail", "roots", "verify"} {
		if _, ok := body[k]; ok {
			t.Errorf("disabled audit face serves %q", k)
		}
	}
}

func TestAuditTypeFilter(t *testing.T) {
	l := newLog(t, 30)
	h := AuditHandler(func() *audit.Log { return l })
	snap := auditGet(t, h, "/audit?type="+string(audit.PolicyDeny))
	if len(snap.Tail) != 10 {
		t.Fatalf("filtered tail of %d, want the 10 denials", len(snap.Tail))
	}
	for _, r := range snap.Tail {
		if r.Type != audit.PolicyDeny {
			t.Errorf("filtered tail holds a %s record", r.Type)
		}
	}
	if snap.Verify != nil {
		t.Error("verification ran without ?verify=1")
	}
}

func TestAuditVerify(t *testing.T) {
	l := newLog(t, 200)
	h := AuditHandler(func() *audit.Log { return l })
	snap := auditGet(t, h, "/audit?verify=1")
	if snap.Verify == nil || !snap.Verify.OK || snap.Verify.Error != "" {
		t.Fatalf("verify = %+v, want ok on an intact log", snap.Verify)
	}
}
