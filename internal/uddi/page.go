// page.go is the registry's paged state transfer: the one bulk read a
// replica attach and a peer reconcile share. A page is a key-ordered run
// of live records bounded by its encoded size, so no reply — and no
// buffer on either end — grows with the registry. The reader walks pages
// by continuation key and then follows the change journal from the first
// page's position: a page may already hold changes journaled after that
// position, and replaying them over it is idempotent, the same fuzziness
// contract snapshots have.
package uddi

import (
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"
)

// pageBytes bounds the encoded size of one state-transfer page and of
// one watch or repl_watch batch. An encoder stops adding records once
// its output passes the bound, so a reply holds at most pageBytes plus
// one record: a single larger record travels alone.
const pageBytes = 64 << 10

// pageSlack is the headroom a page buffer is grown by beyond pageBytes:
// room for the record that crosses the bound (a device entry is about
// 1.3 KB) and the trailer, so the buffer is grown at most once.
const pageSlack = 4 << 10

// Page is one key-ordered, byte-bounded run of a registry's live
// entries, with the journal position and regime it was read at.
type Page struct {
	// Seq is the journal position read before the page's scan.
	Seq uint64
	// Epoch and Leader are the regime the page was read under; Leader is
	// empty on a peer face.
	Epoch  uint64
	Leader string
	// Boundary is where the requester's regime ended in this node's
	// history: the journal position of this node's epoch mark for the
	// first regime after the epoch the requester named (see
	// epochBoundaryLocked). A deposed leader's writes journaled above it
	// never reached this regime; at or below it they did, so an entry the
	// transfer lacks there was removed by this regime. 0 when the
	// requester named no older epoch, the mark predates this node's
	// memory, or on a peer face.
	Boundary uint64
	// Next is the continuation key: the next page holds the entries keyed
	// after it. Empty on the last page.
	Next    string
	Entries []Entry
	// Deadlines are the entries' lease deadlines, index for index; zero
	// on a peer face, which does not serve leases.
	Deadlines []time.Time
}

// pageHeader is a page's position, regime and the requester's boundary,
// read before the scan. private is false on a peer or read-only face,
// which is not told the leader or the boundary.
func (s *Server) pageHeader(reqEpoch uint64, private bool) Page {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	p := Page{Seq: s.seq, Epoch: s.epoch}
	if private {
		p.Leader = s.epochLeader
		if reqEpoch > 0 && reqEpoch < s.epoch {
			p.Boundary, _ = s.epochBoundaryLocked(reqEpoch)
		}
	}
	return p
}

// recHeap is a min-heap of records by key.
type recHeap []*record

func (h recHeap) Len() int           { return len(h) }
func (h recHeap) Less(i, j int) bool { return h[i].entry.Key < h[j].entry.Key }
func (h recHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)        { *h = append(*h, x.(*record)) }
func (h *recHeap) Pop() any {
	old := *h
	rec := old[len(old)-1]
	*h = old[:len(old)-1]
	return rec
}

// walkPage hands put the live entries keyed after `after`, in key order,
// until put reports that the page is full, and returns the continuation
// key: the last key it scanned, or "" when no live entry remains past
// it. Behind a view, entries are filtered and rewritten and carry no
// deadline. The scan takes record pointers, not clones — installed
// records are never mutated — and orders only what the page consumes: a
// heap over the candidates, not a sort of them. Lapsed but unswept
// records are skipped; their expire record is still coming on the
// journal, where it deletes an absent key.
func (s *Server) walkPage(after string, view View, put func(e Entry, expires time.Time) (full bool)) (next string) {
	now := s.now()
	var h recHeap
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, rec := range sh.entries {
			if key > after && !now.After(rec.expires) {
				h = append(h, rec)
			}
		}
		sh.mu.RUnlock()
	}
	heap.Init(&h)
	for h.Len() > 0 {
		rec := heap.Pop(&h).(*record)
		e, exp := rec.entry, rec.expires
		if view != nil {
			var ok bool
			if e, ok = view(e); !ok {
				continue
			}
			exp = time.Time{}
		}
		if put(e, exp) && h.Len() > 0 {
			return rec.entry.Key
		}
	}
	return ""
}

// appendBinPage appends a served page request's reply: the header serve
// read, then the entries keyed after the reply's continuation key
// straight from the registry's records. b is the link's reused frame
// buffer, grown once for the bound. Behind a view, entries are filtered
// and rewritten and carry no deadline.
func (s *Server) appendBinPage(b []byte, rep *reply) []byte {
	p := &rep.page
	b = slices.Grow(b, pageBytes+pageSlack)
	start := len(b)
	b = append(b, binUDDIVersion, binUDDIPageR)
	b = binary.AppendUvarint(b, p.Seq)
	b = binary.AppendUvarint(b, p.Epoch)
	b = appendWALString(b, p.Leader)
	b = binary.AppendUvarint(b, p.Boundary)
	next := s.walkPage(rep.after, rep.view, func(e Entry, exp time.Time) bool {
		b = append(b, 1)
		b = appendWALEntry(b, e, exp)
		return len(b)-start >= pageBytes
	})
	b = append(b, 0)
	return appendWALString(b, next)
}

// decodeBinPage parses a page reply: the header, then (expiry, entry)
// groups each flagged 1, a 0, and the continuation key.
func decodeBinPage(data []byte) (Page, error) {
	r, err := decodeBinReply(data, binUDDIPageR)
	if err != nil {
		return Page{}, err
	}
	var p Page
	p.Seq = r.uvarint()
	p.Epoch = r.uvarint()
	p.Leader = r.str()
	p.Boundary = r.uvarint()
	for r.err == nil {
		flag := r.byte()
		if flag == 0 {
			break
		}
		if flag != 1 {
			return Page{}, fmt.Errorf("uddi: bad page entry flag %d", flag)
		}
		e, exp := decodeWALEntry(r)
		p.Entries = append(p.Entries, e)
		p.Deadlines = append(p.Deadlines, exp)
	}
	p.Next = r.str()
	if r.err != nil {
		return Page{}, r.err
	}
	return p, nil
}

// Page fetches the page of live entries keyed after `after` ("" for the
// first page). epoch is the requester's own replication epoch: a deposed
// leader rejoining gets the regime boundary its handback needs in
// Page.Boundary. On the private repository face the page carries lease
// deadlines; on a peer face it is filtered through the caller's view.
func (c *Client) Page(ctx context.Context, after string, epoch uint64) (Page, error) {
	rep, err := c.call(ctx, &request{op: opPage, name: "state_page", after: after, epoch: epoch})
	return rep.page, err
}

// --- staging (the replica end) ---------------------------------------------

// Staging collects a paged state transfer on the receiving registry
// until it is complete, then installs it wholesale. Staged records that
// match what the registry already holds reuse the installed record, so a
// member re-attaching to state it mostly has (a restarted ex-leader, a
// replica resynced after a short gap) holds one copy of it, not two.
type Staging struct {
	s    *Server
	recs []*record // key-ordered: pages arrive in key order
}

// Stage starts a state transfer into s. Nothing changes until Install.
func (s *Server) Stage() *Staging { return &Staging{s: s} }

// Add stages one page's entries in order, taking ownership of them (a
// decoded page's entries are not used again by the caller). Keys must
// ascend across every page of the transfer.
func (st *Staging) Add(p *Page) error {
	if len(p.Entries) != len(p.Deadlines) {
		return fmt.Errorf("uddi: page with %d entries but %d deadlines", len(p.Entries), len(p.Deadlines))
	}
	for i := range p.Entries {
		e, exp := &p.Entries[i], p.Deadlines[i]
		if n := len(st.recs); n > 0 && e.Key <= st.recs[n-1].entry.Key {
			return fmt.Errorf("uddi: page entry %q out of key order", e.Key)
		}
		sh := st.s.shardFor(e.Key)
		sh.mu.RLock()
		old := sh.entries[e.Key]
		sh.mu.RUnlock()
		if old != nil && old.expires.Equal(exp) && entriesEqual(old.entry, *e) {
			st.recs = append(st.recs, old)
			continue
		}
		st.recs = append(st.recs, &record{entry: *e, expires: exp})
	}
	return nil
}

// Len reports how many entries are staged.
func (st *Staging) Len() int { return len(st.recs) }

// Has reports whether key is staged.
func (st *Staging) Has(key string) bool {
	i := sort.Search(len(st.recs), func(i int) bool { return st.recs[i].entry.Key >= key })
	return i < len(st.recs) && st.recs[i].entry.Key == key
}

// Install re-grounds the registry on the staged transfer: the attach
// (and re-attach) path, used when a replica joins or when the leader's
// journal no longer covers the replica's cursor. seq, epoch and leader
// are the first page's. Everything local is discarded — entries, journal
// ring, and the entire WAL history, which is reset to a fresh snapshot
// at seq so a later recovery cannot resurrect records from the regime
// this node just left. Fails with ErrStaleEpoch if the transfer's epoch
// is behind this node's: a newer regime's state never yields to an
// older.
func (st *Staging) Install(seq, epoch uint64, leader string) error {
	s := st.s
	if cur, curLeader := s.Epoch(); epoch < cur {
		return fmt.Errorf("uddi: state transfer epoch %d behind current %d (leader %s): %w",
			epoch, cur, curLeader, ErrStaleEpoch)
	}
	// Wholesale swap: every shard locked in index order, then the journal
	// lock — the same shard → jmu order every mutator uses.
	s.lockShards(allShards)
	for i := range s.shards {
		s.shards[i].reset()
	}
	for _, rec := range st.recs {
		s.shardFor(rec.entry.Key).put(rec)
	}
	s.jmu.Lock()
	s.seq = seq
	s.journal.reset()
	// The re-ground breaks journal continuity with everything this node
	// served before, so its remembered epoch boundaries no longer describe
	// positions in a history it can replay — old-epoch cursors must resync.
	s.epochMarks = s.epochMarks[:0]
	if epoch >= s.epoch {
		s.epoch, s.epochLeader = epoch, leader
	}
	err := s.walResetLocked(st.recs, seq, s.epoch, s.epochLeader)
	close(s.wake)
	s.wake = make(chan struct{})
	s.jmu.Unlock()
	s.unlockShards(allShards)
	return err
}

// Leases calls fn with the key and deadline of every live entry, in no
// particular order, without copying entries. fn runs under a shard's
// read lock and must not call back into the registry.
func (s *Server) Leases(fn func(key string, expires time.Time)) {
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, rec := range sh.entries {
			if !now.After(rec.expires) {
				fn(key, rec.expires)
			}
		}
		sh.mu.RUnlock()
	}
}

// --- byte-bounded watch batches ------------------------------------------

// binChangeSize bounds the encoded size of one change in a binary watch
// reply: seq and expiry uvarints, the op byte, and the entry.
func binChangeSize(e *Entry) int {
	return 2*binary.MaxVarintLen64 + 1 + binEntrySize(e)
}

// binEntrySize is the exact encoded size of one entry (appendBinEntry):
// what every sized encoder, the WAL batch included, adds up before it
// allocates.
func binEntrySize(e *Entry) int {
	n := uvarintSize(len(e.Categories))
	for _, v := range [...]string{e.Key, e.Name, e.Description, e.AccessPoint, e.TModel, e.WSDL} {
		n += walStringSize(v)
	}
	for k, v := range e.Categories {
		n += walStringSize(k) + walStringSize(v)
	}
	return n
}

func uvarintSize(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

func walStringSize(v string) int { return uvarintSize(len(v)) + len(v) }

// entriesEqual reports whether two entries carry the same fields and
// category bag.
func entriesEqual(a, b Entry) bool {
	if a.Key != b.Key || a.Name != b.Name || a.Description != b.Description ||
		a.AccessPoint != b.AccessPoint || a.TModel != b.TModel || a.WSDL != b.WSDL ||
		len(a.Categories) != len(b.Categories) {
		return false
	}
	for k, v := range a.Categories {
		if w, ok := b.Categories[k]; !ok || w != v {
			return false
		}
	}
	return true
}
