// Snapshot byte-compatibility: the golden files under testdata/ were
// written by the whole-payload snapshot writer this package used before
// snapshots were streamed. The streaming writer must produce the same
// bytes for the same state, so existing data directories load unchanged.
package uddi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// deviceWSDL is the legacy located form of a device entry's WSDL: the
// one-operation Switch interface with the service's own endpoint in its
// soap:address, as vsr.EntryFor published it before the address moved
// to the access point alone. The golden files hold these bytes, and
// located entries must still decode and resolve as they did.
const deviceWSDL = `<?xml version="1.0" encoding="UTF-8"?>
<definitions name="Switch" targetNamespace="urn:homeconnect:iface:Switch" xmlns="http://schemas.xmlsoap.org/wsdl/" xmlns:tns="urn:homeconnect:iface:Switch" xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/" xmlns:xsd="http://www.w3.org/2001/XMLSchema"><message name="SetInput"><part name="on" type="xsd:boolean"/></message><message name="SetOutput"></message><portType name="Switch"><operation name="Set"><input message="tns:SetInput"/><output message="tns:SetOutput"/></operation></portType><binding name="SwitchSoapBinding" type="tns:Switch"><soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/><operation name="Set"><soap:operation soapAction="urn:homeconnect:iface:Switch#Set"/><input><soap:body use="encoded" namespace="urn:homeconnect:iface:Switch"/></input><output><soap:body use="encoded" namespace="urn:homeconnect:iface:Switch"/></output></operation></binding><service name="Switch"><port name="SwitchPort" binding="tns:SwitchSoapBinding"><soap:address location="%s"/></port></service></definitions>`

// deviceEntry is device i as a gateway registered it in the located
// form: the entry shape (and, at ~1.3 KB encoded, the size) of the
// benchmark's switch devices, each with its own copy of the document.
func deviceEntry(i int) Entry {
	id := fmt.Sprintf("dev%d:d-%05d", i%8, i)
	endpoint := "http://127.0.0.1:9/services/" + id
	return Entry{
		Key:         "uuid:svc-" + id,
		Name:        id,
		Description: id,
		AccessPoint: endpoint,
		TModel:      "Switch",
		WSDL:        fmt.Sprintf(deviceWSDL, endpoint),
		Categories: map[string]string{
			"homeconnect.id":         id,
			"homeconnect.middleware": fmt.Sprintf("dev%d", i%8),
		},
	}
}

// goldenNow is the registry clock the golden snapshots were written at.
var goldenNow = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// goldenEntries is the state behind the golden snapshots: device
// entries, an entry with no categories, one with more categories than
// fit a small buffer, and one with bytes a text format would mangle.
func goldenEntries() []Entry {
	many := make(map[string]string)
	for i := 0; i < 12; i++ {
		many[fmt.Sprintf("k%02d", 11-i)] = strings.Repeat("v", i)
	}
	es := []Entry{
		{Key: "uuid:bare", Name: "bare"},
		{Key: "uuid:many", Name: "many", TModel: "tmodel:many", Categories: many},
		{Key: "uuid:hostile", Name: "h\x00<&>ü", Description: strings.Repeat("d", 300),
			AccessPoint: "http://gw.example/h", Categories: map[string]string{"": "", "\xff": "\x00"}},
	}
	for i := 0; i < 5; i++ {
		es = append(es, deviceEntry(i))
	}
	return es
}

// goldenSnapshot writes the golden state through the steady-state
// trigger (Save, then Snapshot) and returns the snapshot's bytes.
func goldenSnapshot(t *testing.T) []byte {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1, Clock: func() time.Time { return goldenNow }})
	for i, e := range goldenEntries() {
		s.Save(e, time.Duration(i+1)*time.Minute)
	}
	s.Delete(deviceEntry(2).Key)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.CrashClose()
	return newestSnapshot(t, dir)
}

// goldenStateTransfer writes the golden state through replica state
// transfer (a staged page installed, which resets the WAL to a snapshot
// of the installed records) and returns the snapshot's bytes. The
// entries are handed over unsorted and one carries no lease deadline.
func goldenStateTransfer(t *testing.T) []byte {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1, Clock: func() time.Time { return goldenNow }})
	es := goldenEntries()
	ds := make([]time.Time, len(es))
	for i := range es {
		ds[i] = goldenNow.Add(time.Duration(i) * time.Hour)
	}
	ds[1] = time.Time{}
	for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
		es[i], es[j] = es[j], es[i]
		ds[i], ds[j] = ds[j], ds[i]
	}
	if err := applyState(s, es, ds, 77, 3, "http://vsr-b.example/uddi"); err != nil {
		t.Fatal(err)
	}
	s.CrashClose()
	return newestSnapshot(t, dir)
}

func newestSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	snaps := snapFiles(t, dir)
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotGoldenBytes: both snapshot paths write, byte for byte, what
// the previous writer wrote for the same state.
func TestSnapshotGoldenBytes(t *testing.T) {
	for name, write := range map[string]func(*testing.T) []byte{
		"snapshot.golden":       goldenSnapshot,
		"state_transfer.golden": goldenStateTransfer,
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if got := write(t); !bytes.Equal(got, want) {
				t.Fatalf("snapshot bytes differ from testdata/%s: %d bytes, want %d", name, len(got), len(want))
			}
		})
	}
}
