package events

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/service"
)

func motionEvent(seq uint64) service.Event {
	return service.Event{
		Source: "x10:motion-1",
		Topic:  "motion",
		Seq:    seq,
		Time:   time.Date(2002, 7, 2, 12, 0, 0, 0, time.UTC),
		Payload: map[string]service.Value{
			"unit": service.IntValue(7),
			"on":   service.BoolValue(true),
		},
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	in := []service.Event{motionEvent(1), {Source: "a", Topic: "b", Seq: 2, Time: time.Unix(0, 0).UTC()}}
	out, err := DecodeEvents(EncodeEvents(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d events", len(out))
	}
	if out[0].Source != "x10:motion-1" || out[0].Topic != "motion" || out[0].Seq != 1 {
		t.Errorf("event = %+v", out[0])
	}
	if !out[0].Payload["unit"].Equal(service.IntValue(7)) || !out[0].Payload["on"].Equal(service.BoolValue(true)) {
		t.Errorf("payload = %v", out[0].Payload)
	}
	if !out[0].Time.Equal(in[0].Time) {
		t.Errorf("time = %v", out[0].Time)
	}
}

func TestDecodeEventsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "<events><event seq=\"x\"/></events>", "<events><event time=\"zzz\"/></events>"} {
		if _, err := DecodeEvents([]byte(bad)); err == nil {
			t.Errorf("DecodeEvents(%q) accepted", bad)
		}
	}
}

func TestHubLocalSubscribe(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var mu sync.Mutex
	var got []service.Event
	stop := h.Subscribe("motion", func(ev service.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	h.Publish(motionEvent(1))
	h.Publish(service.Event{Source: "x", Topic: "other"})
	mu.Lock()
	if len(got) != 1 || got[0].Topic != "motion" {
		t.Errorf("got %+v", got)
	}
	mu.Unlock()
	stop()
	h.Publish(motionEvent(2))
	mu.Lock()
	if len(got) != 1 {
		t.Error("unsubscribed handler called")
	}
	mu.Unlock()
}

func TestHubPollCursorSemantics(t *testing.T) {
	h := NewHub()
	defer h.Close()
	ctx := context.Background()

	// Nothing yet: empty result after timeout, cursor unchanged.
	evs, next, err := h.Poll(ctx, 0, "", 20*time.Millisecond)
	if err != nil || len(evs) != 0 || next != 0 {
		t.Fatalf("empty poll = %v, %d, %v", evs, next, err)
	}

	h.Publish(motionEvent(1))
	h.Publish(motionEvent(2))
	evs, next, err = h.Poll(ctx, 0, "", time.Second)
	if err != nil || len(evs) != 2 {
		t.Fatalf("poll = %v, %v", evs, err)
	}
	// Subsequent poll from the cursor sees nothing new.
	evs, next2, _ := h.Poll(ctx, next, "", 20*time.Millisecond)
	if len(evs) != 0 || next2 != next {
		t.Errorf("stale poll returned %v (cursor %d→%d)", evs, next, next2)
	}
	// New publication is seen from the cursor.
	h.Publish(motionEvent(3))
	evs, _, _ = h.Poll(ctx, next, "", time.Second)
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Errorf("incremental poll = %+v", evs)
	}
}

func TestHubPollWakesOnPublish(t *testing.T) {
	h := NewHub()
	defer h.Close()
	done := make(chan int, 1)
	go func() {
		evs, _, _ := h.Poll(context.Background(), 0, "motion", 5*time.Second)
		done <- len(evs)
	}()
	time.Sleep(20 * time.Millisecond)
	h.Publish(motionEvent(9))
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("woken poll returned %d events", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poll did not wake on publish")
	}
}

func TestHubPollTopicFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.Publish(service.Event{Source: "s", Topic: "alpha"})
	h.Publish(service.Event{Source: "s", Topic: "beta"})
	evs, _, _ := h.Poll(context.Background(), 0, "beta", time.Second)
	if len(evs) != 1 || evs[0].Topic != "beta" {
		t.Errorf("filtered poll = %+v", evs)
	}
}

func TestHubPushDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var mu sync.Mutex
	var got []service.Event
	sid := h.SubscribePush("motion", func(ev service.Event) error {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		return nil
	})
	h.Publish(motionEvent(1))
	h.Publish(service.Event{Source: "x", Topic: "other"})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })
	h.UnsubscribePush(sid)
	h.Publish(motionEvent(2))
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	if len(got) != 1 {
		t.Errorf("after unsubscribe got %d", len(got))
	}
	mu.Unlock()
}

func TestHubPushDropsDeadSubscriber(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var calls int
	var mu sync.Mutex
	h.SubscribePush("", func(service.Event) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return context.DeadlineExceeded
	})
	for i := 0; i < 10; i++ {
		h.Publish(motionEvent(uint64(i)))
	}
	// After 3 failures the pusher gives up; some deliveries may be
	// dropped from the queue, but the count must stop at 3.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	if calls > 3 {
		t.Errorf("dead subscriber called %d times", calls)
	}
	mu.Unlock()
}

func TestHTTPPollAndPush(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Long poll over HTTP.
	type pollResult struct {
		evs  []service.Event
		next uint64
	}
	done := make(chan pollResult, 1)
	go func() {
		evs, next, _ := client.Poll(ctx, 0, "motion", 5*time.Second)
		done <- pollResult{evs, next}
	}()
	time.Sleep(20 * time.Millisecond)
	h.Publish(motionEvent(1))
	var pr pollResult
	select {
	case pr = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("HTTP long poll timed out")
	}
	if len(pr.evs) != 1 || pr.evs[0].Payload["unit"].Int() != 7 {
		t.Fatalf("poll = %+v", pr.evs)
	}
	if pr.next == 0 {
		t.Error("cursor not advanced")
	}

	// Push over HTTP callback.
	var mu sync.Mutex
	var pushed []service.Event
	recv, err := NewPushReceiver(func(ev service.Event) {
		mu.Lock()
		pushed = append(pushed, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	sid, err := client.Subscribe(ctx, recv.URL(), "motion")
	if err != nil || sid == "" {
		t.Fatalf("Subscribe = %q, %v", sid, err)
	}
	h.Publish(motionEvent(2))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(pushed) == 1 })
	if err := client.Unsubscribe(ctx, sid); err != nil {
		t.Fatal(err)
	}
	h.Publish(motionEvent(3))
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	if len(pushed) != 1 {
		t.Errorf("after unsubscribe pushed = %d", len(pushed))
	}
	mu.Unlock()
}

// TestHTTPPollEscapesTopic: topics come from user-written scene files,
// so characters with meaning in a query string must reach the hub as
// part of the topic — not break the request or poll another topic.
func TestHTTPPollEscapesTopic(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	for _, topic := range []string{"room 1/motion", "a&b", "a+b", "x#y"} {
		t.Run(topic, func(t *testing.T) {
			ev := motionEvent(1)
			ev.Topic = topic
			h.Publish(ev)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			evs, _, err := client.Poll(ctx, 0, topic, 0)
			if err != nil {
				t.Fatalf("poll %q: %v", topic, err)
			}
			if len(evs) != 1 || evs[0].Topic != topic {
				t.Fatalf("poll %q returned %d events %+v, want the one on that topic", topic, len(evs), evs)
			}
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTopicMatches(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		// Empty filter and bare star are wildcards.
		{"", "anything", true},
		{"", "", true},
		{"*", "havi.tape-end", true},
		{"*", "", true},
		// Exact matching.
		{"motion", "motion", true},
		{"motion", "motions", false},
		{"motion", "Motion", false}, // case-sensitive
		{"a.b", "a.b", true},
		{"a.b", "a.c", false},
		// Trailing-star prefix matching.
		{"havi.*", "havi.tape-end", true},
		{"havi.*", "havi.", true},
		{"havi.*", "havi", false}, // prefix includes the dot
		{"havi.*", "x10.on", false},
		{"guide*", "guide.match", true},
		{"guide*", "guide", true},
		// A star anywhere but the end is literal.
		{"a*b", "a*b", true},
		{"a*b", "axb", false},
		{"*x", "*x", true},
		{"*x", "ax", false},
		// Degenerate double star: prefix "*".
		{"**", "*anything", true},
		{"**", "anything", false},
	}
	for _, c := range cases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
		if got := topicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("topicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestHubSubscribeWildcard(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var mu sync.Mutex
	var got []string
	stop := h.Subscribe("havi.*", func(ev service.Event) {
		mu.Lock()
		got = append(got, ev.Topic)
		mu.Unlock()
	})
	defer stop()
	h.Publish(service.Event{Source: "s", Topic: "havi.tape-end"})
	h.Publish(service.Event{Source: "s", Topic: "x10.on"})
	h.Publish(service.Event{Source: "s", Topic: "havi.eject"})
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "havi.tape-end" || got[1] != "havi.eject" {
		t.Errorf("wildcard subscription saw %v", got)
	}
}
