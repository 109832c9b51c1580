package uddi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"homeconnect/internal/transport"
	"homeconnect/internal/xmltree"
)

// Client talks to a registry server. With a Dialer, each operation goes
// as a binary-native record over the fast path wherever the endpoint has
// negotiated one, and as its XML document over HTTP wherever it has not;
// without a Dialer, every operation is an XML document over HTTP.
type Client struct {
	// HTTP is the underlying client; the Dialer's HTTP side when a
	// Dialer is set, else the shared keep-alive transport.
	HTTP *http.Client
	// Dialer, when set, owns protocol negotiation for this registry.
	Dialer *transport.Dialer
	// URL is the registry endpoint; ignored when Resolver is set.
	URL string
	// Resolver, when set, replaces URL with a replica-set endpoint list:
	// every operation goes to Resolver.Current(), and an endpoint that is
	// down or answers ErrNotLeader moves the client to the next one (or
	// straight to the leader the replica named) before the error surfaces.
	Resolver *transport.Resolver
}

// endpoint is the registry URL the next attempt should use.
func (c *Client) endpoint() string {
	if c.Resolver != nil {
		return c.Resolver.Current()
	}
	return c.URL
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	if c.Dialer != nil {
		return c.Dialer.HTTPClient()
	}
	return transport.OpenDialer().HTTPClient()
}

// call runs one registry operation. Each attempt sends its binary
// record to the current endpoint over the Dialer; only when that
// endpoint has no binary fast path does it POST the operation's XML
// document — encoded once, on first need — to the same endpoint over
// HTTP. Because the operation carries all its state (watch cursors
// included), switching wires loses nothing. Either wire's response
// decodes into the one typed reply. With a Resolver, failover-worthy
// errors from either wire (endpoint down, ErrNotLeader) move to the next
// endpoint before surfacing.
func (c *Client) call(ctx context.Context, req *request) (reply, error) {
	attempts := 1
	if c.Resolver != nil {
		// One extra attempt over the set size, so a not-leader redirect to
		// a pinned leader still has a try left after a full rotation.
		attempts = c.Resolver.Len() + 1
	}
	rec := encodeBinRequest(req)
	var xml []byte
	var err error
	for i := 0; i < attempts; i++ {
		url := c.endpoint()
		var rep reply
		rep, err = c.exchangeAt(ctx, url, req, rec)
		if errors.Is(err, transport.ErrBinaryUnavailable) {
			if xml == nil {
				xml = encodeXMLRequest(req)
			}
			var root *xmltree.Element
			if root, err = c.postAt(ctx, url, xml); err == nil {
				rep, err = decodeXMLReply(req, root)
			}
		}
		if err == nil {
			return rep, nil
		}
		if c.Resolver == nil || ctx.Err() != nil || !FailoverWorthy(err) {
			return reply{}, err
		}
		if h := LeaderHint(err); h != "" && c.Resolver.Pin(h) {
			continue
		}
		c.Resolver.Fail(url)
	}
	return reply{}, err
}

// exchangeAt sends req's binary-native record rec to url over the
// Dialer and decodes the reply record while the link still holds it.
// transport.ErrBinaryUnavailable (always, without a Dialer) means the
// endpoint has no fast path and the operation goes over HTTP instead.
// A refusal decodes to its typed error here, while the endpoint choice
// is still open: a replica's E_notLeader must become an error for the
// failover loop to act on.
func (c *Client) exchangeAt(ctx context.Context, url string, req *request, rec []byte) (reply, error) {
	if c.Dialer == nil {
		return reply{}, transport.ErrBinaryUnavailable
	}
	var rep reply
	var derr error
	err := c.Dialer.Exchange(ctx, url, BinContentType, "", rec, func(res transport.BinResult) {
		rep, derr = decodeBinReplyTo(req, res.Body)
	})
	if errors.Is(err, transport.ErrBinaryUnavailable) {
		return reply{}, err
	}
	if err != nil {
		return reply{}, fmt.Errorf("uddi: %w", &endpointDownError{err})
	}
	return rep, derr
}

// postAt POSTs one XML document to url over HTTP and parses the reply.
func (c *Client) postAt(ctx context.Context, url string, doc []byte) (*xmltree.Element, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return nil, fmt.Errorf("uddi: build request: %w", err)
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("uddi: %w", &endpointDownError{err})
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("uddi: read response: %w", err)
	}
	root, err := xmltree.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("uddi: parse response: %w", err)
	}
	if root.Name.Local == "dispositionReport" && root.Attr("result") == "error" {
		// Refusals surface as typed sentinels — auth errors so callers can
		// tell a locked door from a broken one, replication errors so the
		// failover loop can tell a replica from a dead endpoint. The same
		// mapping serves the binary wire (binErrorOf).
		return nil, binErrorOf(root.ChildText("errCode"), root.ChildText("errInfo"))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("uddi: http status %s", resp.Status)
	}
	return root, nil
}

// authError is a registry auth refusal: the server's message verbatim,
// unwrapping to the matching service sentinel for errors.Is.
type authError struct {
	msg  string
	kind error
}

func (e *authError) Error() string { return e.msg }

func (e *authError) Unwrap() error { return e.kind }

// Save publishes the entry with the given TTL and returns the assigned
// service key.
func (c *Client) Save(ctx context.Context, e Entry, ttl time.Duration) (string, error) {
	rep, err := c.call(ctx, &request{op: opSave, name: "save_service", entries: []Entry{e}, ttl: ttl})
	if err != nil {
		return "", err
	}
	if len(rep.keys) != 1 {
		return "", fmt.Errorf("uddi: save_service returned %d keys", len(rep.keys))
	}
	return rep.keys[0], nil
}

// SaveAll publishes every entry under one TTL in a single round trip and
// returns the assigned keys in order — the batched refresh gateways use
// so N exports cost one request, not N.
func (c *Client) SaveAll(ctx context.Context, entries []Entry, ttl time.Duration) ([]string, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	rep, err := c.call(ctx, &request{op: opSave, name: "save_services", entries: entries, ttl: ttl})
	if err != nil {
		return nil, err
	}
	if len(rep.keys) != len(entries) {
		return nil, fmt.Errorf("uddi: save_services returned %d keys for %d entries", len(rep.keys), len(entries))
	}
	return rep.keys, nil
}

// Watch long-polls the registry's change journal: it blocks up to timeout
// for changes with sequence numbers greater than since, returning them in
// order plus the cursor to resume from. resync reports that the journal
// no longer covers since (watcher too far behind, or registry restarted):
// the caller must drop everything it cached and resume from next. A zero
// timeout returns immediately, which doubles as a liveness probe.
func (c *Client) Watch(ctx context.Context, since uint64, timeout time.Duration) (changes []Change, next uint64, resync bool, err error) {
	changes, next, _, resync, err = c.WatchEpoch(ctx, since, 0, timeout)
	return changes, next, resync, err
}

// WatchEpoch is Watch carrying the replication epoch the cursor was
// handed out under (0 = unknown), and returning the server's current
// epoch alongside the next cursor. Across a leader failover the promoted
// server uses the stated epoch to replay shared history for an old-regime
// cursor instead of forcing a resync; a watcher that wants that behavior
// must resume with the returned epoch — adopting next even when it is
// below its old cursor, because a lower next under a newer epoch is the
// replay point, not a stale answer.
func (c *Client) WatchEpoch(ctx context.Context, since, sinceEpoch uint64, timeout time.Duration) (changes []Change, next, nextEpoch uint64, resync bool, err error) {
	rep, err := c.call(ctx, &request{op: opWatch, name: "watch", since: since, epoch: sinceEpoch, timeout: timeout})
	return rep.changes, rep.next, rep.epoch, rep.resync, err
}

// Delete removes the registration with the given key.
func (c *Client) Delete(ctx context.Context, key string) error {
	_, err := c.call(ctx, &request{op: opDelete, name: "delete_service", key: key})
	return err
}

// Find runs an inquiry and returns matching entries sorted by name.
func (c *Client) Find(ctx context.Context, q Query) ([]Entry, error) {
	entries, _, err := c.FindSeq(ctx, q)
	return entries, err
}

// FindSeq is Find plus the registry's journal sequence number observed at
// read time. A cache filled from the result is current through that
// sequence: if a watch later reports a change with a higher number for an
// entry, the cached copy is stale; a concurrent change with a lower or
// equal number was already reflected in the inquiry.
func (c *Client) FindSeq(ctx context.Context, q Query) ([]Entry, uint64, error) {
	rep, err := c.call(ctx, &request{op: opFind, name: "find_service", query: q})
	return rep.entries, rep.seq, err
}

// Get fetches one entry by key; found is false for unknown or expired
// keys.
func (c *Client) Get(ctx context.Context, key string) (Entry, bool, error) {
	rep, err := c.call(ctx, &request{op: opGet, name: "get_serviceDetail", key: key})
	if err != nil || len(rep.entries) == 0 {
		return Entry{}, false, err
	}
	return rep.entries[0], true, nil
}
