// Differential tests for the category postings behind Find: randomized
// schedules over every path that writes a shard (save, re-save with
// changed categories, delete, expiry, replicated changes, state transfer,
// durable reopen through snapshot load and WAL replay), each step checked
// against a brute-force Matches scan; plus NUL-bearing categories through
// the binary face and a concurrent Save/Find/Sweep mix for -race.
package uddi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// bruteFind is Find without the postings: every record of every shard,
// expiry-skipped and decided by Matches, in Find's name/key order.
func bruteFind(s *Server, q Query) []Entry {
	now := s.now()
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if !now.After(rec.expires) && q.Matches(rec.entry) {
				out = append(out, rec.entry.Clone())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// checkPostings rebuilds every shard's postings from its entries and
// requires the maintained index to be exactly that: same pairs, same
// keys, the very same records.
func checkPostings(t *testing.T, s *Server) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		want := make(map[catPair]map[string]*record)
		for key, rec := range sh.entries {
			if key != rec.entry.Key {
				t.Errorf("shard %d: record %q filed under %q", i, rec.entry.Key, key)
			}
			for k, v := range rec.entry.Categories {
				p := catPair{k, v}
				if want[p] == nil {
					want[p] = make(map[string]*record)
				}
				want[p][key] = rec
			}
		}
		if len(sh.postings) != len(want) {
			t.Errorf("shard %d: %d postings, want %d", i, len(sh.postings), len(want))
		}
		for p, set := range want {
			got := sh.postings[p]
			if (got.rec == nil) == (got.more == nil) {
				t.Errorf("shard %d: posting %q=%q holds a record inline and a map both or neither", i, p.key, p.value)
			}
			if got.len() != len(set) {
				t.Errorf("shard %d: posting %q=%q holds %d records, want %d", i, p.key, p.value, got.len(), len(set))
				continue
			}
			for key, rec := range set {
				if got.rec != nil && (got.key != key || got.rec != rec) || got.more != nil && got.more[key] != rec {
					t.Errorf("shard %d: posting %q=%q has a stale record for %s", i, p.key, p.value, key)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// propGen draws the entries, queries and schedule steps of one run. The
// value pools are small on purpose so postings overlap, shrink to empty
// and reappear.
type propGen struct {
	r *rand.Rand
}

var (
	propMiddleware = []string{"jini", "havi", "upnp", "x10"}
	propRooms      = []string{"living", "kitchen", ""}
	propTModels    = []string{"Lamp", "VCR"}
)

func (g propGen) key() string { return fmt.Sprintf("uuid:k%02d", g.r.Intn(16)) }

func (g propGen) id() string { return fmt.Sprintf("dev-%d", g.r.Intn(12)) }

func (g propGen) categories() map[string]string {
	if g.r.Intn(8) == 0 {
		return nil
	}
	c := map[string]string{"homeconnect.id": g.id()}
	if g.r.Intn(5) > 0 {
		c["homeconnect.middleware"] = propMiddleware[g.r.Intn(len(propMiddleware))]
	}
	if g.r.Intn(2) == 0 {
		c["room"] = propRooms[g.r.Intn(len(propRooms))]
	}
	return c
}

func (g propGen) entry(key string) Entry {
	name := fmt.Sprintf("%s:svc-%d", propMiddleware[g.r.Intn(len(propMiddleware))], g.r.Intn(6))
	return Entry{
		Key:         key,
		Name:        name,
		AccessPoint: "http://gw.example/" + name,
		TModel:      propTModels[g.r.Intn(len(propTModels))],
		Categories:  g.categories(),
	}
}

// changed returns e with its category bag altered: a value moved, a key
// dropped or added — the re-save that must move the record between
// postings.
func (g propGen) changed(e Entry) Entry {
	e = e.Clone()
	if e.Categories == nil {
		e.Categories = map[string]string{}
	}
	switch g.r.Intn(3) {
	case 0:
		e.Categories["homeconnect.id"] = g.id() + "-moved"
	case 1:
		if _, ok := e.Categories["room"]; ok {
			delete(e.Categories, "room")
		} else {
			e.Categories["room"] = "attic"
		}
	default:
		e.Categories["homeconnect.middleware"] = propMiddleware[g.r.Intn(len(propMiddleware))]
	}
	return e
}

func (g propGen) ttl() time.Duration { return time.Duration(1+g.r.Intn(10)) * time.Second }

// queries returns one of each shape: by ID, by middleware, several
// categories, none (with name glob or tModel), an absent category, and an
// empty-valued category (which also matches entries lacking the key).
func (g propGen) queries() []Query {
	mw := propMiddleware[g.r.Intn(len(propMiddleware))]
	return []Query{
		{Categories: map[string]string{"homeconnect.id": g.id()}},
		{Categories: map[string]string{"homeconnect.middleware": mw}},
		{Categories: map[string]string{"homeconnect.middleware": mw, "room": propRooms[g.r.Intn(2)]}},
		{Categories: map[string]string{"homeconnect.id": g.id(), "homeconnect.middleware": mw, "room": "attic"}},
		{},
		{Name: mw + ":%"},
		{TModel: propTModels[g.r.Intn(len(propTModels))], Name: "%svc-%"},
		{Categories: map[string]string{"absent": "x"}},
		{Categories: map[string]string{"homeconnect.middleware": mw, "absent": "x"}},
		{Categories: map[string]string{"room": ""}},
		{Categories: map[string]string{"room": "", "homeconnect.middleware": mw}},
		{Categories: map[string]string{}},
	}
}

// storedKeys lists every key held in the shards, expired or not.
func storedKeys(s *Server) []string {
	var keys []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.entries {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// storedState is every record by key (lapsed ones too): what a durable
// reopen must restore exactly.
func storedState(s *Server) map[string]record {
	out := make(map[string]record)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, rec := range sh.entries {
			out[k] = record{entry: rec.entry.Clone(), expires: rec.expires}
		}
		sh.mu.RUnlock()
	}
	return out
}

func statesEqual(a, b map[string]record) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok || !entriesEqual(ra.entry, rb.entry) || !ra.expires.Equal(rb.expires) {
			return false
		}
	}
	return true
}

// TestFindPostingsDifferential drives randomized schedules of every shard
// write path and, after each step, requires Find to return exactly what a
// brute-force Matches scan returns, for queries of every shape, and the
// postings to equal an index rebuilt from scratch.
func TestFindPostingsDifferential(t *testing.T) {
	const seeds, steps = 12, 160
	var snapshotLoads, replays int
	for seed := int64(1); seed <= seeds; seed++ {
		g := propGen{r: rand.New(rand.NewSource(seed))}
		dir := t.TempDir()
		clk := newFakeClock(time.Unix(1_000_000, 0))
		open := func() *Server {
			return durableServer(t, dir, DurabilityOptions{SnapshotEvery: 7, Clock: clk.now})
		}
		s := open()
		for step := 0; step < steps; step++ {
			var what string
			switch k := g.r.Intn(100); {
			case k < 30:
				what = "save"
				s.Save(g.entry(g.key()), g.ttl())
			case k < 45:
				what = "re-save with changed categories"
				if keys := storedKeys(s); len(keys) > 0 {
					e := storedState(s)[keys[g.r.Intn(len(keys))]].entry
					s.Save(g.changed(e), g.ttl())
				}
			case k < 55:
				what = "delete"
				s.Delete(g.key())
			case k < 67:
				what = "expiry sweep"
				clk.advance(time.Duration(g.r.Intn(4000)) * time.Millisecond)
				s.Sweep()
			case k < 82:
				what = "replicated change"
				c := Change{Seq: s.Seq() + 1, Entry: g.entry(g.key())}
				switch g.r.Intn(6) {
				case 0:
					c.Seq += uint64(1 + g.r.Intn(3)) // a gap in the feed
				case 1:
					c.Seq = s.Seq() // duplicate redelivery: a no-op
				}
				c.Op = []ChangeOp{OpAdd, OpUpdate, OpDelete, OpExpire}[g.r.Intn(4)]
				if c.Op == OpAdd || c.Op == OpUpdate {
					c.Expires = clk.now().Add(g.ttl())
				}
				if err := s.ApplyReplicated(c); err != nil && c.Seq > 0 {
					t.Fatalf("seed %d step %d: ApplyReplicated: %v", seed, step, err)
				}
			case k < 88:
				what = "state transfer"
				byKey := make(map[string]Entry)
				for n := g.r.Intn(12); n > 0; n-- {
					e := g.entry(g.key())
					byKey[e.Key] = e
				}
				var entries []Entry
				var deadlines []time.Time
				for _, e := range byKey {
					entries = append(entries, e)
					deadlines = append(deadlines, clk.now().Add(g.ttl()-2*time.Second))
				}
				epoch, leader := s.Epoch()
				if err := applyState(s, entries, deadlines, s.Seq()+uint64(g.r.Intn(4)), epoch, leader); err != nil {
					t.Fatalf("seed %d step %d: state transfer: %v", seed, step, err)
				}
			default:
				what = "durable reopen"
				before, seq := storedState(s), s.Seq()
				if g.r.Intn(2) == 0 {
					s.CrashClose()
				} else if err := s.Shutdown(); err != nil {
					t.Fatalf("seed %d step %d: Shutdown: %v", seed, step, err)
				}
				s = open()
				rec := s.Recovery()
				if rec.SnapshotSeq > 0 {
					snapshotLoads++
				}
				replays += rec.Replayed
				if s.Seq() != seq || !statesEqual(storedState(s), before) {
					t.Fatalf("seed %d step %d: reopen restored seq %d (want %d) or a different state", seed, step, s.Seq(), seq)
				}
			}
			checkPostings(t, s)
			for _, q := range g.queries() {
				got, want := s.Find(q), bruteFind(s, q)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (after %s): Find(%+v) = %d entries, brute-force scan = %d\n got: %+v\nwant: %+v",
						seed, step, what, q, len(got), len(want), got, want)
				}
			}
		}
		s.Close()
	}
	// The schedules must have reached the recovery paths they claim to
	// cover, or the reopen steps proved nothing about them.
	if snapshotLoads == 0 || replays == 0 {
		t.Fatalf("reopens loaded %d snapshots and replayed %d WAL records; want both > 0", snapshotLoads, replays)
	}
}

// TestFindPostingsNULCategories saves entries whose category keys and
// values carry NUL bytes, laid out so that joining key and value with a
// NUL separator would make distinct pairs collide, and checks through
// the binary face (whose 'S' and 'F' records carry NULs verbatim) that
// every Find returns exactly the Matches set.
func TestFindPostingsNULCategories(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var opts Face
	entries := []Entry{
		// "a\x00b" + "\x00" + "c" == "a" + "\x00" + "b\x00c".
		{Key: "uuid:left", Name: "x10:left", Categories: map[string]string{"a\x00b": "c"}},
		{Key: "uuid:right", Name: "x10:right", Categories: map[string]string{"a": "b\x00c"}},
		{Key: "uuid:both", Name: "x10:both", Categories: map[string]string{"a\x00b": "c", "a": "b\x00c"}},
		{Key: "uuid:nul", Name: "x10:nul", Categories: map[string]string{"\x00": "\x00", "a": ""}},
		{Key: "uuid:empty", Name: "x10:empty", Categories: map[string]string{"": "\x00\x00"}},
		{Key: "uuid:split", Name: "x10:split", Categories: map[string]string{"\x00": "", "": "\x00"}},
	}
	resp := binServe(s, opts, "home-a", encodeBinSaveAll(entries, time.Hour))
	if keys, err := decodeBinKeys(resp.Body); err != nil || len(keys) != len(entries) {
		t.Fatalf("save: keys=%v err=%v", keys, err)
	}
	queries := []map[string]string{
		{"a\x00b": "c"},
		{"a": "b\x00c"},
		{"a\x00b": "c", "a": "b\x00c"},
		{"a": "b"},
		{"a\x00b\x00c": ""},
		{"a\x00b": "c\x00"},
		{"\x00": "\x00"},
		{"\x00\x00": ""},
		{"": "\x00\x00"},
		{"\x00": ""},
		{"": "\x00"},
		{"a": ""},
	}
	for _, cats := range queries {
		q := Query{Categories: cats}
		resp := binServe(s, opts, "home-a", encodeBinFind(q))
		got, _, err := decodeBinEntries(resp.Body)
		if err != nil {
			t.Fatalf("find %q: %v", cats, err)
		}
		want := bruteFind(s, q)
		if len(got) != len(want) {
			t.Fatalf("find %q over the binary face = %d entries, Matches set = %d", cats, len(got), len(want))
		}
		for i := range got {
			if !entriesEqual(got[i], want[i]) {
				t.Fatalf("find %q: entry %d = %q, Matches set has %q", cats, i, got[i].Key, want[i].Key)
			}
		}
	}
	checkPostings(t, s)
}

// TestFindPostingsConcurrent runs saves that move records between
// postings, deletes, expiry sweeps and finds at once (meaningful under
// -race), requires every concurrent Find result to satisfy its query,
// and checks the quiesced index against a brute-force scan.
func TestFindPostingsConcurrent(t *testing.T) {
	s := NewManualServer()
	defer s.Close()
	clk := newFakeClock(time.Unix(1_000_000, 0))
	s.SetClock(clk.now)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := propGen{r: rand.New(rand.NewSource(seed))}
			for i := 0; i < 300; i++ {
				switch g.r.Intn(3) {
				case 0:
					s.Delete(g.key())
				default:
					s.Save(g.entry(g.key()), g.ttl())
				}
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := propGen{r: rand.New(rand.NewSource(seed))}
			for i := 0; i < 150; i++ {
				for _, q := range g.queries() {
					for _, e := range s.Find(q) {
						if !q.Matches(e) {
							t.Errorf("Find(%+v) returned non-matching %+v", q, e)
							return
						}
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.advance(50 * time.Millisecond)
			s.Sweep()
		}
	}()
	wg.Wait()
	checkPostings(t, s)
	g := propGen{r: rand.New(rand.NewSource(7))}
	for _, q := range g.queries() {
		if got, want := s.Find(q), bruteFind(s, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Find(%+v) = %d entries after the run, brute-force scan = %d", q, len(got), len(want))
		}
	}
}
