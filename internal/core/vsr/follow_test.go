package vsr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// groundRecorder is a follower under test: a ground function that walks
// the repository (or fails while failing is set) and an apply callback
// that records every delta.
type groundRecorder struct {
	v       *VSR
	failing bool
	grounds int
	walked  map[string]bool
	got     []string
}

func (r *groundRecorder) ground(ctx context.Context) (uint64, error) {
	r.grounds++
	if r.failing {
		return 0, errors.New("walk refused")
	}
	r.walked = make(map[string]bool)
	return r.v.Walk(ctx, func(rm Remote) { r.walked[rm.Desc.ID] = true })
}

func (r *groundRecorder) apply(d Delta) { r.got = append(r.got, string(d.Op)+" "+d.ServiceID) }

// registerN registers n lamps with IDs jini:lamp-<from>…
func registerN(t *testing.T, v *VSR, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		desc := lampDesc()
		desc.ID = fmt.Sprintf("jini:lamp-%d", i)
		if _, err := v.Register(context.Background(), desc, "http://h/"+desc.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerGroundsBeforeFirstRound: the follower grounds before its
// first watch round, so that round starts at the walk's position and
// delivers no change the walk already read; later rounds deliver only
// what came after it.
func TestFollowerGroundsBeforeFirstRound(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	registerN(t, v, 0, 3)
	r := &groundRecorder{v: v}
	f := v.Follow(r.ground, r.apply)
	if err := f.Step(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if r.grounds != 1 || len(r.walked) != 3 {
		t.Fatalf("first round: %d grounds reading %d services, want 1 reading 3", r.grounds, len(r.walked))
	}
	if len(r.got) != 1 || r.got[0] != "up " {
		t.Fatalf("first round delivered %q, want only Up", r.got)
	}
	if seq, _ := f.Cursor(); seq != srv.Registry().Seq() {
		t.Fatalf("cursor = %d, want the walk's position %d", seq, srv.Registry().Seq())
	}

	registerN(t, v, 3, 1)
	if err := f.Step(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if r.grounds != 1 {
		t.Errorf("a covered round grounded again (%d grounds)", r.grounds)
	}
	if want := []string{"up ", "add jini:lamp-3"}; fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Fatalf("deltas = %q, want %q", r.got, want)
	}
}

// TestFollowerGroundFailure: a failed ground is a failed round. It is
// delivered as Down once however often it repeats, no watch round runs
// until a ground succeeds, and a resync whose ground fails leaves the
// cursor before the gap, so the next round grounds again instead of
// skipping it.
func TestFollowerGroundFailure(t *testing.T) {
	srv, v := newVSR(t)
	ctx := context.Background()
	registerN(t, v, 0, 2)
	r := &groundRecorder{v: v, failing: true}
	f := v.Follow(r.ground, r.apply)
	for i := 0; i < 2; i++ {
		if err := f.Step(ctx, 0); err == nil {
			t.Fatal("a round whose ground failed succeeded")
		}
	}
	if r.grounds != 2 {
		t.Fatalf("grounds = %d after two failed rounds, want 2", r.grounds)
	}
	if want := []string{"down "}; fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Fatalf("deltas = %q, want %q", r.got, want)
	}
	if seq, _ := f.Cursor(); seq != 0 {
		t.Fatalf("cursor = %d before any ground succeeded, want 0", seq)
	}
	r.failing = false
	if err := f.Step(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if r.grounds != 3 || len(r.walked) != 2 {
		t.Fatalf("recovery: %d grounds reading %d services, want 3 reading 2", r.grounds, len(r.walked))
	}

	// The journal keeps one change and two happen: the next round is a
	// resync, and its ground fails.
	before, _ := f.Cursor()
	srv.Registry().SetJournalCapacity(1)
	registerN(t, v, 2, 2)
	r.failing = true
	if err := f.Step(ctx, 0); err == nil {
		t.Fatal("a resync whose ground failed succeeded")
	}
	if seq, _ := f.Cursor(); seq != before {
		t.Fatalf("cursor = %d after a failed resync ground, want %d", seq, before)
	}
	r.failing = false
	if err := f.Step(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if r.grounds != 5 || len(r.walked) != 4 {
		t.Fatalf("after the gap: %d grounds reading %d services, want 5 reading 4", r.grounds, len(r.walked))
	}
	want := []string{"down ", "up ", "resync ", "down ", "up "}
	if fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Fatalf("deltas = %q, want %q", r.got, want)
	}
	if seq, _ := f.Cursor(); seq != srv.Registry().Seq() {
		t.Fatalf("cursor = %d, want %d", seq, srv.Registry().Seq())
	}
}
