package events

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/xmltree"
)

// XML codec for events on the wire.

// EncodeEvents renders events as an <events> document.
func EncodeEvents(evs []service.Event) []byte {
	w := xmltree.NewWriter()
	w.Open("events")
	for _, ev := range evs {
		writeEvent(w, ev)
	}
	return w.Bytes()
}

func writeEvent(w *xmltree.Writer, ev service.Event) {
	w.Open("event",
		"source", ev.Source,
		"topic", ev.Topic,
		"seq", strconv.FormatUint(ev.Seq, 10),
		"time", ev.Time.UTC().Format(time.RFC3339Nano),
	)
	keys := make([]string, 0, len(ev.Payload))
	for k := range ev.Payload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := ev.Payload[k]
		w.Leaf("p", v.Text(), "name", k, "type", v.Kind().String())
	}
	w.Close()
}

// DecodeEvents parses an <events> document.
func DecodeEvents(data []byte) ([]service.Event, error) {
	root, err := xmltree.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	var out []service.Event
	for _, el := range root.All("event") {
		ev, err := eventFromXML(el)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func eventFromXML(el *xmltree.Element) (service.Event, error) {
	ev := service.Event{
		Source:  el.Attr("source"),
		Topic:   el.Attr("topic"),
		Payload: make(map[string]service.Value),
	}
	if s := el.Attr("seq"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return service.Event{}, fmt.Errorf("events: bad seq %q", s)
		}
		ev.Seq = n
	}
	if ts := el.Attr("time"); ts != "" {
		t, err := time.Parse(time.RFC3339Nano, ts)
		if err != nil {
			return service.Event{}, fmt.Errorf("events: bad time %q", ts)
		}
		ev.Time = t
	}
	for _, p := range el.All("p") {
		kind := service.KindFromString(p.Attr("type"))
		v, err := service.ParseText(kind, p.Text)
		if err != nil {
			return service.Event{}, fmt.Errorf("events: payload %s: %w", p.Attr("name"), err)
		}
		ev.Payload[p.Attr("name")] = v
	}
	return ev, nil
}

// Handler exposes a hub over HTTP under three verbs:
//
//	POST /poll        — long poll; query params since, topic, timeoutms
//	POST /subscribe   — body <subscribe callback="URL" topic="..."/>
//	POST /unsubscribe — body <unsubscribe sid="..."/>
//	POST /publish     — body <events>...</events>; injects events into the hub
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/publish", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		evs, err := DecodeEvents(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, ev := range evs {
			h.Publish(ev)
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/poll", func(w http.ResponseWriter, r *http.Request) {
		since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
		topic := r.URL.Query().Get("topic")
		timeout := 10 * time.Second
		if t := r.URL.Query().Get("timeoutms"); t != "" {
			if ms, err := strconv.Atoi(t); err == nil && ms >= 0 {
				timeout = time.Duration(ms) * time.Millisecond
			}
		}
		evs, next, err := h.Poll(r.Context(), since, topic, timeout)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
		w.Header().Set("X-Next-Cursor", strconv.FormatUint(next, 10))
		_, _ = w.Write(EncodeEvents(evs))
	})
	mux.HandleFunc("/subscribe", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		root, err := xmltree.Parse(body)
		if err != nil || root.Attr("callback") == "" {
			http.Error(w, "subscribe needs a callback attribute", http.StatusBadRequest)
			return
		}
		callback := root.Attr("callback")
		topic := root.Attr("topic")
		sid := h.SubscribePush(topic, pushDeliverer(callback))
		xw := xmltree.NewWriter()
		xw.Leaf("sid", sid)
		w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
		_, _ = w.Write(xw.Bytes())
	})
	mux.HandleFunc("/unsubscribe", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		root, err := xmltree.Parse(body)
		if err != nil || root.Attr("sid") == "" {
			http.Error(w, "unsubscribe needs a sid attribute", http.StatusBadRequest)
			return
		}
		h.UnsubscribePush(root.Attr("sid"))
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// pushClient delivers push callbacks over the shared keep-alive
// transport; the seed built a fresh http.Client (and connection) per
// subscription. The timeout bounds each POST because a dead callback
// must not park its pusher goroutine.
var pushClient = (&transport.Dialer{Timeout: 5 * time.Second}).HTTPClient()

// pushDeliverer POSTs one event per request to the callback URL.
func pushDeliverer(callback string) func(service.Event) error {
	return func(ev service.Event) error {
		body := EncodeEvents([]service.Event{ev})
		resp, err := pushClient.Post(callback, `text/xml; charset="utf-8"`, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("events: push to %s: %s", callback, resp.Status)
		}
		return nil
	}
}

// Client consumes a remote hub.
type Client struct {
	// HTTP is the underlying client; the shared keep-alive transport
	// (internal/transport) if nil.
	HTTP *http.Client
	// BaseURL is the hub's mount point (".../events").
	BaseURL string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return transport.OpenDialer().HTTPClient()
}

// Poll long-polls the remote hub.
func (c *Client) Poll(ctx context.Context, since uint64, topic string, timeout time.Duration) ([]service.Event, uint64, error) {
	// Topics come from user-written scene files: escape them, or a space
	// breaks the request and '&', '+' or '#' silently poll another topic.
	q := url.Values{}
	q.Set("since", strconv.FormatUint(since, 10))
	q.Set("topic", topic)
	q.Set("timeoutms", strconv.FormatInt(timeout.Milliseconds(), 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/poll?"+q.Encode(), nil)
	if err != nil {
		return nil, since, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, since, fmt.Errorf("events: poll: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, since, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, since, fmt.Errorf("events: poll: %s", resp.Status)
	}
	next, _ := strconv.ParseUint(resp.Header.Get("X-Next-Cursor"), 10, 64)
	evs, err := DecodeEvents(data)
	if err != nil {
		return nil, since, err
	}
	return evs, next, nil
}

// Publish injects events into the remote hub — the write half of the
// long-poll discipline, used by scene runners that compose events across
// gateways without an in-process hub reference.
func (c *Client) Publish(ctx context.Context, evs ...service.Event) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/publish", bytes.NewReader(EncodeEvents(evs)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("events: publish: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: publish: %s", resp.Status)
	}
	return nil
}

// Subscribe registers a push callback and returns the subscription ID.
func (c *Client) Subscribe(ctx context.Context, callback, topic string) (string, error) {
	xw := xmltree.NewWriter()
	xw.SelfClose("subscribe", "callback", callback, "topic", topic)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/subscribe", bytes.NewReader(xw.Bytes()))
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("events: subscribe: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: subscribe: %s", resp.Status)
	}
	root, err := xmltree.Parse(data)
	if err != nil || root.Name.Local != "sid" {
		return "", fmt.Errorf("events: bad subscribe response")
	}
	return root.Text, nil
}

// Unsubscribe cancels a push subscription.
func (c *Client) Unsubscribe(ctx context.Context, sid string) error {
	xw := xmltree.NewWriter()
	xw.SelfClose("unsubscribe", "sid", sid)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/unsubscribe", bytes.NewReader(xw.Bytes()))
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("events: unsubscribe: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// PushReceiver is a small HTTP server receiving pushed events — the
// subscriber side of a push subscription.
type PushReceiver struct {
	ln    net.Listener
	httpS *http.Server
}

// NewPushReceiver starts a receiver on an ephemeral port; fn runs for
// every delivered event.
func NewPushReceiver(fn func(service.Event)) (*PushReceiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		evs, err := DecodeEvents(data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, ev := range evs {
			fn(ev)
		}
		w.WriteHeader(http.StatusOK)
	})
	r := &PushReceiver{ln: ln, httpS: &http.Server{Handler: handler}}
	go func() { _ = r.httpS.Serve(ln) }()
	return r, nil
}

// URL returns the callback URL to register.
func (r *PushReceiver) URL() string { return "http://" + r.ln.Addr().String() + "/" }

// Close stops the receiver.
func (r *PushReceiver) Close() { _ = r.httpS.Close() }
