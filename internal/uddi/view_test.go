// Tests for the view-filtered, read-only registry face peering endpoints
// are built from.
package uddi

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// viewFixture starts a registry plus a read-only peering face that hides entries
// whose name starts with "secret" and stamps a category on the rest.
func viewFixture(t *testing.T) (*Server, *Client, *Client) {
	t.Helper()
	s := NewServer()
	t.Cleanup(s.Close)
	main := httptest.NewServer(s.Handler())
	t.Cleanup(main.Close)
	view := func(e Entry) (Entry, bool) {
		if strings.HasPrefix(e.Name, "secret") {
			return Entry{}, false
		}
		e = e.Clone()
		if e.Categories == nil {
			e.Categories = make(map[string]string)
		}
		e.Categories["stamp"] = "yes"
		return e, true
	}
	viewed := httptest.NewServer(s.HTTPHandler(peerFace(view), nil))
	t.Cleanup(viewed.Close)
	return s, &Client{URL: main.URL}, &Client{URL: viewed.URL}
}

func TestViewHandlerFindFiltersAndStamps(t *testing.T) {
	_, direct, viewed := viewFixture(t)
	ctx := context.Background()
	for _, name := range []string{"public-1", "secret-1", "public-2"} {
		if _, err := direct.Save(ctx, Entry{Name: name, AccessPoint: "http://h/" + name}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	all, err := direct.Find(ctx, Query{})
	if err != nil || len(all) != 3 {
		t.Fatalf("direct find = %d entries, %v", len(all), err)
	}
	got, err := viewed.Find(ctx, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("viewed find = %d entries, want 2: %v", len(got), got)
	}
	for _, e := range got {
		if strings.HasPrefix(e.Name, "secret") {
			t.Errorf("secret entry %s leaked through view", e.Name)
		}
		if e.Categories["stamp"] != "yes" {
			t.Errorf("entry %s missing view stamp", e.Name)
		}
	}
}

func TestViewHandlerGetFilters(t *testing.T) {
	_, direct, viewed := viewFixture(t)
	ctx := context.Background()
	secretKey, err := direct.Save(ctx, Entry{Name: "secret-9"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pubKey, err := direct.Save(ctx, Entry{Name: "public-9"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := viewed.Get(ctx, secretKey); err != nil || found {
		t.Errorf("secret entry visible through viewed get (found=%v err=%v)", found, err)
	}
	e, found, err := viewed.Get(ctx, pubKey)
	if err != nil || !found || e.Categories["stamp"] != "yes" {
		t.Errorf("public entry through viewed get = %+v found=%v err=%v", e, found, err)
	}
}

func TestViewHandlerWatchFilters(t *testing.T) {
	_, direct, viewed := viewFixture(t)
	ctx := context.Background()
	if _, err := direct.Save(ctx, Entry{Name: "secret-w"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Save(ctx, Entry{Name: "public-w"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	changes, next, resync, err := viewed.Watch(ctx, 0, 0)
	if err != nil || resync {
		t.Fatalf("watch: changes=%v resync=%v err=%v", changes, resync, err)
	}
	if next == 0 {
		t.Fatal("watch cursor not advanced")
	}
	if len(changes) != 1 || changes[0].Entry.Name != "public-w" {
		t.Fatalf("viewed watch = %v, want only public-w", changes)
	}
	// The cursor still covers the hidden change: resuming from next sees
	// nothing new rather than replaying it.
	changes, _, _, err = viewed.Watch(ctx, next, 0)
	if err != nil || len(changes) != 0 {
		t.Fatalf("resumed watch = %v, %v", changes, err)
	}
}

func TestViewHandlerReadOnly(t *testing.T) {
	s, direct, viewed := viewFixture(t)
	ctx := context.Background()
	if _, err := viewed.Save(ctx, Entry{Name: "writer"}, time.Minute); err == nil {
		t.Error("save through view handler accepted")
	}
	key, err := direct.Save(ctx, Entry{Name: "keeper"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := viewed.Delete(ctx, key); err == nil {
		t.Error("delete through view handler accepted")
	}
	if s.Len() != 1 {
		t.Errorf("registry length = %d after rejected writes, want 1", s.Len())
	}
}

func TestViewHandlerWatchFiltersDeletes(t *testing.T) {
	_, direct, viewed := viewFixture(t)
	ctx := context.Background()
	sk, err := direct.Save(ctx, Entry{Name: "secret-d"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := direct.Save(ctx, Entry{Name: "public-d"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_, next, _, err := viewed.Watch(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Delete(ctx, sk); err != nil {
		t.Fatal(err)
	}
	if err := direct.Delete(ctx, pk); err != nil {
		t.Fatal(err)
	}
	changes, _, _, err := viewed.Watch(ctx, next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpDelete || changes[0].Entry.Name != "public-d" {
		t.Fatalf("viewed delete stream = %v, want only public-d delete", changes)
	}
}
