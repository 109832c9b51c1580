package uddi

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homeconnect/internal/xmltree"
)

// pageReplyLimit is the largest reply a bounded encoder may produce for
// records no larger than entry: pageBytes, the record that crossed it,
// and the reply's own header and trailer.
func pageReplyLimit(entry int) int { return pageBytes + entry + 512 }

// largestDeviceRecord is the larger of one device entry's binary and XML
// encodings, with deadline and wrapper element.
func largestDeviceRecord(i int) int {
	e := deviceEntry(i)
	bin := len(appendWALEntry(nil, e, time.Now())) + 24
	var w xmltree.Writer
	w.Open("replChange", "seq", "18446744073709551615", "op", "update", "expiresms", "18446744073709551615")
	entryToXML(&w, e)
	return max(bin, len(w.Bytes()))
}

// TestPagedTransferUnderWrites is the differential check of the paged
// state transfer. On each wire a fresh replica walks the pages of a
// 10k-entry leader while a writer adds, renews, re-homes and deletes
// entries concurrently, installs them at the first page's position, and
// follows the journal from there. It must end byte-identical to the
// leader. Every page and every feed batch stays within pageBytes plus
// the one record that crossed it, and the feed needs more than one
// batch, so the watch bound is exercised too.
func TestPagedTransferUnderWrites(t *testing.T) {
	const n = 10000
	leader := NewManualServer()
	defer leader.Close()
	leader.SetJournalCapacity(1 << 17)
	if err := leader.SetEpoch(1, "http://leader.test/uddi"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		leader.Save(deviceEntry(i), time.Hour)
	}
	limit := pageReplyLimit(largestDeviceRecord(n + n/4))

	var maxBody atomic.Int64
	noteBody := func(t *testing.T, what string, size int) {
		t.Helper()
		if size > limit {
			t.Errorf("%s reply of %d bytes exceeds the page bound %d", what, size, limit)
		}
		for {
			cur := maxBody.Load()
			if int64(size) <= cur || maxBody.CompareAndSwap(cur, int64(size)) {
				return
			}
		}
	}
	xmlSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		leader.Handler().ServeHTTP(rec, r)
		noteBody(t, "xml", rec.Body.Len())
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer xmlSrv.Close()
	c := &Client{URL: xmlSrv.URL}
	ctx := context.Background()

	type wire struct {
		page  func(after string) (Page, error)
		watch func(since, epoch uint64) (ReplChanges, error)
	}
	wires := map[string]wire{
		"xml": {
			page: func(after string) (Page, error) { return c.Page(ctx, after, 0) },
			watch: func(since, epoch uint64) (ReplChanges, error) {
				return c.ReplWatch(ctx, since, epoch, 0)
			},
		},
		"binary": {
			page: func(after string) (Page, error) {
				resp := binServe(leader, Face{}, "home-a", encodeBinPageReq(after, 0))
				noteBody(t, "binary page", len(resp.Body))
				return decodeBinPage(resp.Body)
			},
			watch: func(since, epoch uint64) (ReplChanges, error) {
				resp := binServe(leader, Face{}, "home-a", encodeBinReplWatchReq(since, epoch, 0))
				noteBody(t, "binary repl_watch", len(resp.Body))
				return decodeBinReplChanges(resp.Body)
			},
		},
	}
	for name, wr := range wires {
		t.Run(name, func(t *testing.T) {
			stop := make(chan struct{})
			var writes atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(len(name))))
				for writes.Load() < 8000 {
					select {
					case <-stop:
						return
					default:
					}
					i := r.Intn(n + n/4)
					switch k := r.Intn(10); {
					case k < 6:
						leader.Save(deviceEntry(i), time.Hour)
					case k < 8:
						e := deviceEntry(i)
						e.AccessPoint = fmt.Sprintf("http://rehomed-%d/soap", r.Intn(1000))
						leader.Save(e, time.Hour)
					default:
						leader.Delete(deviceEntry(i).Key)
					}
					writes.Add(1)
				}
			}()

			replica := NewServer()
			defer replica.Close()
			pages := 0
			first, err := pullPages(func(after string) (Page, error) {
				pages++
				return wr.page(after)
			}, replica)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if pages < n*1000/pageBytes {
				t.Fatalf("transfer of %d entries took %d pages", n, pages)
			}
			if writes.Load() == 0 {
				t.Fatal("no write ran during the transfer")
			}

			// Follow the journal from the first page's position. A
			// cursor that stops advancing fails here, not at the test
			// binary's timeout.
			const maxBatches = 500
			batches := 0
			for cursor := first.Seq; cursor < leader.Seq(); batches++ {
				if batches == maxBatches {
					t.Fatalf("feed still behind after %d batches: cursor %d, leader seq %d", batches, cursor, leader.Seq())
				}
				rc, err := wr.watch(cursor, first.Epoch)
				if err != nil {
					t.Fatal(err)
				}
				if rc.Resync {
					t.Fatalf("feed from the first page's seq %d resynced", first.Seq)
				}
				for _, ch := range rc.Changes {
					if err := replica.ApplyReplicated(ch); err != nil {
						t.Fatal(err)
					}
				}
				cursor = rc.Next
			}
			if batches < 2 {
				t.Fatalf("feed of %d writes fit one batch; the watch bound went unexercised", writes.Load())
			}
			if x, y := stateBytes(t, leader), stateBytes(t, replica); !bytes.Equal(x, y) {
				t.Fatalf("replica diverged from the leader after %d pages, %d writes and %d feed batches",
					pages, writes.Load(), batches)
			}
			t.Logf("%d pages, %d concurrent writes, %d feed batches, largest reply %d bytes (limit %d)",
				pages, writes.Load(), batches, maxBody.Load(), limit)
		})
	}
}

// TestPageBoundsLargeEntry: an entry larger than the page bound travels
// alone, in a page of its own, and the walk continues after it.
func TestPageBoundsLargeEntry(t *testing.T) {
	s := NewServer()
	defer s.Close()
	big := lampEntry()
	big.Key, big.WSDL = "uuid:b", strings.Repeat("w", 2*pageBytes)
	small := lampEntry()
	for _, k := range []string{"uuid:a", "uuid:c"} {
		small.Key = k
		s.Save(small, time.Hour)
	}
	s.Save(big, time.Hour)
	var keys []string
	var sizes []int
	for after := ""; ; {
		p, err := decodeBinPage(binServe(s, Face{}, "", encodeBinPageReq(after, 0)).Body)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(p.Entries))
		for _, e := range p.Entries {
			keys = append(keys, e.Key)
		}
		if p.Next == "" {
			break
		}
		after = p.Next
	}
	if got := strings.Join(keys, ","); got != "uuid:a,uuid:b,uuid:c" {
		t.Fatalf("walk returned %s", got)
	}
	if fmt.Sprint(sizes) != "[2 1]" {
		t.Fatalf("page sizes %v, want the large entry to end the first page and one more page after it", sizes)
	}
}

// TestOldStateDumpRefused: the full-dump request of earlier releases is
// refused on both wires with E_unsupported, never answered with a
// partial dump.
func TestOldStateDumpRefused(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Save(lampEntry(), time.Hour)
	resp := binServe(s, Face{}, "home-a", []byte{binUDDIVersion, 'Y', 0})
	r := &walReader{b: resp.Body, off: 2}
	if resp.Status != http.StatusBadRequest || resp.Body[1] != binUDDIError || r.str() != "E_unsupported" {
		t.Fatalf("binary 'Y': status %d body % x", resp.Status, resp.Body)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	_, err := (&Client{URL: srv.URL}).postAt(context.Background(), srv.URL,
		[]byte("<repl_sync><epoch>0</epoch></repl_sync>"))
	if err == nil || !strings.Contains(err.Error(), "E_unsupported") {
		t.Fatalf("xml repl_sync: err = %v, want E_unsupported", err)
	}
}

// TestPeerFacePageHidesLeases: through a view, a page is filtered and
// rewritten like every other peer read, and carries no deadlines, leader
// or boundary.
func TestPeerFacePageHidesLeases(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.SetEpoch(2, "http://leader.test/uddi"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"public", "secret"} {
		e := lampEntry()
		e.Key, e.Name = "uuid:"+name, name
		s.Save(e, time.Hour)
	}
	view := func(e Entry) (Entry, bool) {
		e = e.Clone()
		e.Description = "exported"
		return e, e.Name != "secret"
	}
	check := func(t *testing.T, p Page) {
		t.Helper()
		if len(p.Entries) != 1 || p.Entries[0].Name != "public" || p.Entries[0].Description != "exported" {
			t.Fatalf("peer page entries %+v", p.Entries)
		}
		if !p.Deadlines[0].IsZero() || p.Leader != "" || p.Boundary != 0 || p.Next != "" || p.Epoch != 2 {
			t.Fatalf("peer page leaked leases or regime: %+v", p)
		}
	}
	t.Run("binary", func(t *testing.T) {
		resp := binServe(s, peerFace(view),
			"home-b", encodeBinPageReq("", 1))
		p, err := decodeBinPage(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
	t.Run("xml", func(t *testing.T) {
		srv := httptest.NewServer(s.HTTPHandler(peerFace(view), nil))
		defer srv.Close()
		p, err := (&Client{URL: srv.URL}).Page(context.Background(), "", 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
}

// TestStagingReusesIdenticalRecords: a transfer of state the replica
// already holds installs the replica's own records, not copies.
func TestStagingReusesIdenticalRecords(t *testing.T) {
	leader := NewServer()
	defer leader.Close()
	for i := 0; i < 50; i++ {
		leader.Save(deviceEntry(i), time.Hour)
	}
	replica := NewServer()
	defer replica.Close()
	fetch := func(after string) (Page, error) {
		return decodeBinPage(binServe(leader, Face{}, "", encodeBinPageReq(after, 0)).Body)
	}
	if _, err := pullPages(fetch, replica); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]*record)
	for _, rec := range replica.sortedRecords() {
		before[rec.entry.Key] = rec
	}
	leader.Save(deviceEntry(7), 2*time.Hour) // one renewal: a new deadline
	if _, err := pullPages(fetch, replica); err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, rec := range replica.sortedRecords() {
		if before[rec.entry.Key] == rec {
			reused++
		} else if rec.entry.Key != deviceEntry(7).Key {
			t.Errorf("unchanged record %s was copied", rec.entry.Key)
		}
	}
	if reused != 49 {
		t.Fatalf("reused %d of 49 unchanged records", reused)
	}
	if x, y := stateBytes(t, leader), stateBytes(t, replica); !bytes.Equal(x, y) {
		t.Fatal("re-attached replica diverged")
	}
}
