package vsr

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// failTransport fails every HTTP round trip: a client built on it can
// only succeed, or fail with the server's own refusal, over the binary
// wire.
type failTransport struct{}

func (failTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("HTTP used")
}

// TestPeerFaceSameRefusalOnBothWires: until an export view is mounted,
// and again once a nil MountPeer unmounts it, /peer refuses every
// request with the same typed 404 E_unsupported on the XML and the
// binary wire, so a uddi.Client reports the same error whichever wire it
// negotiated. While a view is mounted, both wires serve through it.
func TestPeerFaceSameRefusalOnBothWires(t *testing.T) {
	srv, v := newVSR(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := v.Register(ctx, lampDesc(), "http://10.0.0.1:8800/services/jini:lamp-1"); err != nil {
		t.Fatal(err)
	}
	wires := map[string]*uddi.Client{
		"xml":    {URL: srv.PeerURL(), HTTP: &http.Client{}},
		"binary": {URL: srv.PeerURL(), Dialer: transport.NewDialer(nil), HTTP: &http.Client{Transport: failTransport{}}},
	}
	refused := func(stage string) {
		t.Helper()
		var msgs []string
		for name, c := range wires {
			_, err := c.Find(ctx, uddi.Query{})
			if err == nil || !strings.Contains(err.Error(), "E_unsupported: peering not enabled on this repository") {
				t.Fatalf("%s: %s wire: %v, want the typed E_unsupported refusal", stage, name, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("%s: the wires refuse differently: %q vs %q", stage, msgs[0], msgs[1])
		}
	}
	refused("before MountPeer")

	srv.MountPeer(func(caller string) uddi.View {
		return func(e uddi.Entry) (uddi.Entry, bool) {
			e = e.Clone()
			e.Description = "exported"
			return e, true
		}
	})
	for name, c := range wires {
		es, err := c.Find(ctx, uddi.Query{})
		if err != nil || len(es) != 1 || es[0].Description != "exported" {
			t.Fatalf("%s wire through the mounted view: %+v, %v", name, es, err)
		}
	}

	srv.MountPeer(nil)
	refused("after unmount")
}
