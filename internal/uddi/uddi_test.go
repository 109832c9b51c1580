package uddi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func lampEntry() Entry {
	return Entry{
		Name:        "jini:lamp-1",
		Description: "Living room lamp",
		AccessPoint: "http://10.0.0.1:8800/services/jini:lamp-1",
		TModel:      "Lamp",
		Categories:  map[string]string{"room": "living", "middleware": "jini"},
		WSDL:        "<definitions name=\"Lamp\"/>",
	}
}

func TestGlobMatch(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"lamp", "lamp", true},
		{"lamp", "lamp-1", false},
		{"lamp%", "lamp-1", true},
		{"%lamp%", "a lamp here", true},
		{"%lamp", "floor lamp", true},
		{"%", "", true},
		{"%", "anything", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"a%b%c", "abc", true},
		{"a%b%c", "abcX", false},
		{"a%", "a", true},
		{"a%", "ba", false},
		{"%b", "b", true},
		{"%b", "bX", false},
		{"ab%b", "ab", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, tt := range tests {
		if got := compileName(tt.pattern).match(tt.s); got != tt.want {
			t.Errorf("compileName(%q).match(%q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
		// Through the query: an empty Name is "any name", every other
		// pattern decides exactly as compiled.
		want := tt.want || tt.pattern == ""
		if got := (Query{Name: tt.pattern}).Matches(Entry{Name: tt.s}); got != want {
			t.Errorf("Query{Name: %q}.Matches(%q) = %v, want %v", tt.pattern, tt.s, got, want)
		}
	}
}

// TestFindCompilesNamePatternOnce pins the per-inquiry cost of a wildcard
// Name: the pattern is split once per Find, not once per entry, so the
// allocations of a Find that matches nothing do not grow with the
// registry.
func TestFindCompilesNamePatternOnce(t *testing.T) {
	s := NewManualServer()
	allocs := func() float64 {
		return testing.AllocsPerRun(20, func() { s.Find(Query{Name: "nomatch%here%"}) })
	}
	for i := 0; i < 16; i++ {
		s.Save(Entry{Name: fmt.Sprintf("svc-%d", i)}, time.Minute)
	}
	small := allocs()
	for i := 16; i < 512; i++ {
		s.Save(Entry{Name: fmt.Sprintf("svc-%d", i)}, time.Minute)
	}
	if large := allocs(); large > small {
		t.Fatalf("wildcard Find allocs grew with the registry: %v at 16 entries, %v at 512", small, large)
	}
}

func TestServerSaveFindDelete(t *testing.T) {
	s := NewServer()
	key := s.Save(lampEntry(), time.Minute)
	if key == "" || !strings.HasPrefix(key, "uuid:") {
		t.Fatalf("Save key = %q", key)
	}
	got := s.Find(Query{TModel: "Lamp"})
	if len(got) != 1 || got[0].Name != "jini:lamp-1" {
		t.Fatalf("Find = %+v", got)
	}
	if got[0].Categories["room"] != "living" {
		t.Errorf("categories lost: %+v", got[0].Categories)
	}
	// Query filters.
	if n := len(s.Find(Query{TModel: "VCR"})); n != 0 {
		t.Errorf("TModel filter failed: %d", n)
	}
	if n := len(s.Find(Query{Categories: map[string]string{"room": "kitchen"}})); n != 0 {
		t.Errorf("category filter failed: %d", n)
	}
	if n := len(s.Find(Query{Name: "jini:%"})); n != 1 {
		t.Errorf("name glob failed: %d", n)
	}
	s.Delete(key)
	if n := len(s.Find(Query{})); n != 0 {
		t.Errorf("entry survived delete: %d", n)
	}
}

func TestServerReplaceByKey(t *testing.T) {
	s := NewServer()
	e := lampEntry()
	key := s.Save(e, time.Minute)
	e.Key = key
	e.Description = "updated"
	key2 := s.Save(e, time.Minute)
	if key2 != key {
		t.Fatalf("replace produced new key %q != %q", key2, key)
	}
	got, ok := s.Get(key)
	if !ok || got.Description != "updated" {
		t.Errorf("Get after replace = %+v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestServerExpiry(t *testing.T) {
	s := NewServer()
	clk := newFakeClock(time.Unix(1000, 0))
	s.SetClock(clk.now)
	key := s.Save(lampEntry(), 10*time.Second)
	if _, ok := s.Get(key); !ok {
		t.Fatal("entry not found before expiry")
	}
	clk.advance(11 * time.Second)
	if _, ok := s.Get(key); ok {
		t.Error("entry found after expiry")
	}
	if n := len(s.Find(Query{})); n != 0 {
		t.Errorf("expired entry returned by Find: %d", n)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after expiry", s.Len())
	}
	// Refreshing before expiry extends the lifetime.
	key2 := s.Save(lampEntry(), 10*time.Second)
	clk.advance(8 * time.Second)
	e, _ := s.Get(key2)
	e.Key = key2
	s.Save(e, 10*time.Second)
	clk.advance(8 * time.Second)
	if _, ok := s.Get(key2); !ok {
		t.Error("refreshed entry expired")
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{URL: srv.URL}
	ctx := context.Background()

	key, err := c.Save(ctx, lampEntry(), 30*time.Second)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, found, err := c.Get(ctx, key)
	if err != nil || !found {
		t.Fatalf("Get: %v %v", found, err)
	}
	want := lampEntry()
	want.Key = key
	if got.Name != want.Name || got.AccessPoint != want.AccessPoint || got.TModel != want.TModel ||
		got.Description != want.Description || got.WSDL != want.WSDL {
		t.Errorf("Get = %+v, want %+v", got, want)
	}
	if got.Categories["middleware"] != "jini" {
		t.Errorf("categories = %+v", got.Categories)
	}

	list, err := c.Find(ctx, Query{Categories: map[string]string{"middleware": "jini"}})
	if err != nil || len(list) != 1 {
		t.Fatalf("Find = %+v, %v", list, err)
	}

	if err := c.Delete(ctx, key); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, found, _ := c.Get(ctx, key); found {
		t.Error("entry survived delete")
	}
}

func TestClientErrors(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{URL: srv.URL}
	ctx := context.Background()

	// Nameless entry is rejected by the server.
	if _, err := c.Save(ctx, Entry{}, 0); err == nil {
		t.Error("nameless Save accepted")
	}
	// Unreachable server.
	dead := &Client{URL: "http://127.0.0.1:1/uddi"}
	if _, err := dead.Find(ctx, Query{}); err == nil {
		t.Error("dead server Find succeeded")
	}
}

func TestServerHandlerRejectsBadRequests(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{URL: srv.URL}

	// Unknown root element.
	if _, err := c.postAt(context.Background(), srv.URL, []byte("<bogus_request/>")); err == nil {
		t.Error("bogus request accepted")
	}
	// Malformed XML.
	if _, err := c.postAt(context.Background(), srv.URL, []byte("<<<")); err == nil {
		t.Error("malformed request accepted")
	}
}

func TestConcurrentSaveFind(t *testing.T) {
	s := NewServer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				e := lampEntry()
				e.Name = "svc-" + string(rune('a'+n))
				s.Save(e, time.Minute)
				s.Find(Query{Name: "svc-%"})
			}
		}(i)
	}
	wg.Wait()
	if got := s.Len(); got != 8 {
		// Each goroutine saved under a fresh key every iteration, so 8*50
		// entries; Len counts live ones.
		if got != 8*50 {
			t.Errorf("Len = %d, want %d", got, 8*50)
		}
	}
	saves, finds := s.Stats()
	if saves != 400 || finds != 400 {
		t.Errorf("Stats = %d, %d, want 400, 400", saves, finds)
	}
}

// TestQuickFindConsistency: every saved, unexpired entry is findable by
// the empty query, by its exact name, and by its tModel.
func TestQuickFindConsistency(t *testing.T) {
	fn := func(names []string) bool {
		s := NewServer()
		saved := 0
		for i, n := range names {
			if n == "" || strings.ContainsAny(n, "%") {
				continue
			}
			s.Save(Entry{Name: n, TModel: "T" + string(rune('A'+i%3))}, time.Minute)
			saved++
		}
		if len(s.Find(Query{})) != saved {
			return false
		}
		for _, e := range s.Find(Query{}) {
			byName := s.Find(Query{Name: e.Name})
			found := false
			for _, g := range byName {
				if g.Key == e.Key {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
