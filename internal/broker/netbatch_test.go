package broker

import (
	"strings"
	"testing"
	"time"

	"thematicep/internal/event"
)

// startBatchServer is startServer with the broker exposed, so tests can
// assert on its batch counters.
func startBatchServer(t *testing.T, opts ...ServerOption) (*Server, *Broker, string) {
	t.Helper()
	b := New(exactMatcher())
	srv := NewServer(b, opts...)
	addr := serveLocal(t, srv)
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})
	return srv, b, addr.String()
}

// TestClientPublishBatchOverTCP: one publishb frame, every event delivered,
// acknowledged as a single batch on the broker.
func TestClientPublishBatchOverTCP(t *testing.T) {
	_, b, addr := startBatchServer(t)

	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	_, deliveries, err := consumer.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}

	batch := []*event.Event{parkingEvent("p1"), parkingEvent("p2"), parkingEvent("p3")}
	if err := producer.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for len(got) < len(batch) {
		select {
		case d := <-deliveries:
			got[d.Event.Tuples[1].Value] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/%d deliveries", len(got), len(batch))
		}
	}
	st := b.Stats()
	if st.Published != 3 || st.Batches != 1 {
		t.Errorf("published/batches = %d/%d, want 3/1", st.Published, st.Batches)
	}
	if err := producer.PublishBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	// All-or-nothing over the wire: one invalid event rejects the frame.
	err = producer.PublishBatch([]*event.Event{parkingEvent("ok"), {}})
	if err == nil || !strings.Contains(err.Error(), "server error") {
		t.Errorf("invalid batch: %v", err)
	}
	if st := b.Stats(); st.Published != 3 {
		t.Errorf("rejected batch partially admitted: published %d", st.Published)
	}
}

// TestServerMaxBatchCap: frames above the server's batch cap are rejected
// whole without touching the broker.
func TestServerMaxBatchCap(t *testing.T) {
	_, b, addr := startBatchServer(t, WithMaxBatch(2))

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.PublishBatch([]*event.Event{parkingEvent("a"), parkingEvent("b"), parkingEvent("c")})
	if err == nil || !strings.Contains(err.Error(), "exceeds server cap") {
		t.Errorf("oversized batch: %v", err)
	}
	if st := b.Stats(); st.Published != 0 {
		t.Errorf("capped batch reached the broker: published %d", st.Published)
	}
	if err := c.PublishBatch([]*event.Event{parkingEvent("a"), parkingEvent("b")}); err != nil {
		t.Errorf("batch at cap: %v", err)
	}
}
