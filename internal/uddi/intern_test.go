package uddi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"homeconnect/internal/xmltree"
)

// resetInterned empties the intern table, so a test's sharing does not
// depend on how full earlier tests left it.
func resetInterned() {
	interned.mu.Lock()
	interned.m, interned.bytes = nil, 0
	interned.mu.Unlock()
}

// decoders are the three places an entry is decoded: the binary
// registry face, the WAL (and snapshots), and the XML face.
var decoders = map[string]func(*testing.T, Entry) Entry{
	"binuddi": func(t *testing.T, e Entry) Entry {
		r := &walReader{b: appendBinEntry(nil, &e)}
		got := decodeBinEntry(r)
		if r.err != nil {
			t.Fatal(r.err)
		}
		return got
	},
	"wal": func(t *testing.T, e Entry) Entry {
		r := &walReader{b: appendWALEntry(nil, e, time.Time{})}
		got, _ := decodeWALEntry(r)
		if r.err != nil {
			t.Fatal(r.err)
		}
		return got
	},
	"xml": func(t *testing.T, e Entry) Entry {
		w := xmltree.NewWriter()
		entryToXML(w, e)
		root, err := xmltree.Parse(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return entryFromXML(root)
	},
}

// sharedEntry is device i with the address left out of its document, as
// vsr.EntryFor publishes it; every device carries the same document.
func sharedEntry(i int) Entry {
	e := deviceEntry(i)
	e.WSDL = strings.Replace(fmt.Sprintf(deviceWSDL, ""), `<soap:address location=""/>`, "", 1)
	return e
}

// TestDecodersShareRepeatedStrings: two devices of one interface, decoded
// by each entry decoder, come back equal to what was encoded and hold
// one copy of the document, the tModel and each category key.
func TestDecodersShareRepeatedStrings(t *testing.T) {
	for name, decode := range decoders {
		t.Run(name, func(t *testing.T) {
			resetInterned()
			a, b := decode(t, sharedEntry(1)), decode(t, sharedEntry(2))
			for i, got := range []Entry{a, b} {
				if want := sharedEntry(i + 1); !entriesEqual(got, want) {
					t.Fatalf("decoded %+v, want %+v", got, want)
				}
			}
			same := func(field, x, y string) {
				if unsafe.StringData(x) != unsafe.StringData(y) {
					t.Errorf("%s: two copies of %.40q", field, x)
				}
			}
			same("WSDL", a.WSDL, b.WSDL)
			same("tModel", a.TModel, b.TModel)
			for ka := range a.Categories {
				for kb := range b.Categories {
					if ka == kb {
						same("category key", ka, kb)
					}
				}
			}
		})
	}
}

// TestInternTableBounded: 2000 distinct documents through every decoder
// decode as encoded and leave the intern table at or below its cap, and
// so do 64 documents of 256 KiB each against its byte cap.
func TestInternTableBounded(t *testing.T) {
	resetInterned()
	check := func(name string, e Entry) {
		t.Helper()
		if got := decoders[name](t, e); !entriesEqual(got, e) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, e)
		}
		interned.mu.Lock()
		n, bytes := len(interned.m), interned.bytes
		interned.mu.Unlock()
		if n > maxInterned || bytes > maxInternedBytes {
			t.Fatalf("%s: intern table holds %d strings of %d bytes, cap %d and %d", name, n, bytes, maxInterned, maxInternedBytes)
		}
	}
	for name := range decoders {
		for i := 0; i < 2000; i++ {
			check(name, deviceEntry(i))
		}
		for i := 0; i < 64; i++ {
			e := deviceEntry(i)
			e.WSDL = strings.Repeat(fmt.Sprintf("%02d", i), 128<<10)
			check(name, e)
		}
	}
}

// TestInternConcurrent: decoders on several goroutines share the table
// while it fills and resets (meaningful under -race); every entry still
// decodes as encoded.
func TestInternConcurrent(t *testing.T) {
	resetInterned()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				e := sharedEntry(i)
				if i%2 == 1 {
					e = deviceEntry(g*1000 + i)
				}
				r := &walReader{b: appendBinEntry(nil, &e)}
				if got := decodeBinEntry(r); r.err != nil || !entriesEqual(got, e) {
					t.Errorf("goroutine %d: decoded %+v (%v), want %+v", g, got, r.err, e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
