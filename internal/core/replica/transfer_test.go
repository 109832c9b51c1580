package replica

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// TestAttachRestartsOnRegimeChange: a leader whose regime changes while
// a replica walks its pages makes the walk restart from the first page,
// so the replica installs one regime's state, never a mix; a regime that
// keeps changing fails the attach instead of looping.
func TestAttachRestartsOnRegimeChange(t *testing.T) {
	const leaderURL, replicaURL = "http://m0.test/uddi", "http://m1.test/uddi"
	for _, tc := range []struct {
		name    string
		bumpsAt func(page int64) bool // page requests (1-based) before which the epoch moves
		wantErr bool
	}{
		{"once", func(p int64) bool { return p == 3 }, false},
		{"every page", func(p int64) bool { return p > 1 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg0 := uddi.NewManualServer()
			defer reg0.Close()
			if err := reg0.SetEpoch(1, leaderURL); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				reg0.Save(uddi.Entry{Key: fmt.Sprintf("uuid:%03d", i), Name: fmt.Sprintf("svc-%03d", i),
					AccessPoint: "http://x/soap", TModel: "IFace", WSDL: strings.Repeat("w", 1024)}, time.Hour)
			}
			mem := transport.NewMemNet()
			h := vsr.NewDetachedServer("m0.test", reg0, nil).Handler()
			var pages atomic.Int64
			mem.Handle("m0.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if bytes.Contains(body, []byte("<state_page>")) && tc.bumpsAt(pages.Add(1)) {
					epoch, _ := reg0.Epoch()
					if err := reg0.SetEpoch(epoch+1, leaderURL); err != nil {
						t.Error(err)
					}
				}
				h.ServeHTTP(w, r)
			}))
			reg1 := uddi.NewManualServer()
			defer reg1.Close()
			node, err := New(Config{Self: replicaURL, Set: []string{leaderURL, replicaURL},
				Registry: reg1, HTTP: mem.Client()})
			if err != nil {
				t.Fatal(err)
			}
			err = node.JoinAs(context.Background(), leaderURL)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "regime changed") {
					t.Fatalf("attach under a regime changing on every page: err = %v", err)
				}
				if reg1.Len() != 0 {
					t.Fatalf("failed attach installed %d entries", reg1.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			walk := int64(0)
			c := &uddi.Client{URL: leaderURL, HTTP: mem.Client()}
			for after := ""; ; walk++ {
				p, err := c.Page(context.Background(), after, 0)
				if err != nil {
					t.Fatal(err)
				}
				if after = p.Next; after == "" {
					walk++
					break
				}
			}
			if got := pages.Load() - walk; got < walk+2 {
				t.Fatalf("attach read %d pages of a %d-page state: no restart", got, walk)
			}
			epoch0, _ := reg0.Epoch()
			epoch1, leader1 := reg1.Epoch()
			if epoch1 != epoch0 || leader1 != leaderURL || reg1.Seq() != reg0.Seq() || reg1.Len() != 300 {
				t.Fatalf("replica at epoch %d (%s) seq %d with %d entries; leader at epoch %d seq %d with 300",
					epoch1, leader1, reg1.Seq(), reg1.Len(), epoch0, reg0.Seq())
			}
		})
	}
}
