package cluster

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// edgeNode is a federation of one over an exact-match broker: local
// matches come from b.Publish, remote ones are injected as the deliverb
// frames a peer link would hand to handleRemoteDeliveries.
func edgeNode(t *testing.T, cfg Config, opts ...broker.Option) (*Node, *broker.Broker) {
	t.Helper()
	b := broker.New(broker.MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	}), append([]broker.Option{broker.WithReplayBuffer(0)}, opts...)...)
	cfg.Self = "127.0.0.1:1"
	n, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(); b.Close() })
	return n, b
}

func edgeSubscription() *event.Subscription {
	return &event.Subscription{
		Theme:      []string{"land transport"},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
}

func edgeEvent(id string) *event.Event {
	return &event.Event{
		ID:     id,
		Theme:  []string{"land transport"},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}
}

// remote delivers e to h the way a peer shard's match arrives.
func (n *Node) remote(h broker.SubHandle, e *event.Event) {
	n.handleRemoteDeliveries(&broker.Frame{
		Type:    broker.FrameDeliveryBatch,
		Event:   e,
		Targets: []broker.DeliveryTarget{{SubscriptionID: h.ID(), Score: 1}},
	})
}

// queued empties h's queue and returns the event IDs in queue order.
func queued(h broker.SubHandle) []string {
	var ids []string
	taken, _ := h.Take(nil)
	for _, d := range taken {
		ids = append(ids, d.Event.ID)
	}
	return ids
}

// A federated subscription is its local registration: no relay goroutine
// per subscription (the twin of TestServerDeliveryGoroutinesPerConnection).
func TestEdgeSubStartsNoGoroutine(t *testing.T) {
	n, _ := edgeNode(t, Config{})
	n.Start()
	const subs = 2000
	before := runtime.NumGoroutine()
	for i := 0; i < subs; i++ {
		if _, err := n.SubscribeHandle(edgeSubscription()); err != nil {
			t.Fatal(err)
		}
	}
	if added := runtime.NumGoroutine() - before; added >= 10 {
		t.Errorf("%d federated subscriptions added %d goroutines, want fewer than 10", subs, added)
	}
}

// Local and remote copies of one event ID yield one delivery whichever
// arrives first; events without an ID are never suppressed; an ID pushed
// out of the window is delivered again.
func TestEdgeSubDedupBothArrivalOrders(t *testing.T) {
	n, b := edgeNode(t, Config{DedupWindow: 4})
	h, err := n.SubscribeHandle(edgeSubscription())
	if err != nil {
		t.Fatal(err)
	}
	publish := func(e *event.Event) {
		t.Helper()
		if err := b.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what string, deduped uint64, want ...string) {
		t.Helper()
		if got := queued(h); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: queue = %v, want %v", what, got, want)
		}
		if got := n.Stats().Deduped; got != deduped {
			t.Errorf("%s: Deduped = %d, want %d", what, got, deduped)
		}
	}

	n.remote(h, edgeEvent("a"))
	publish(edgeEvent("a"))
	expect("remote then local", 1, "a")

	publish(edgeEvent("b"))
	n.remote(h, edgeEvent("b"))
	expect("local then remote", 2, "b")

	publish(edgeEvent(""))
	n.remote(h, edgeEvent(""))
	expect("no event ID", 2, "", "")

	// Window of 4 holds a, b; c..f push both out.
	for _, id := range []string{"c", "d", "e", "f"} {
		n.remote(h, edgeEvent(id))
	}
	n.remote(h, edgeEvent("f"))
	publish(edgeEvent("a"))
	expect("evicted ID", 3, "c", "d", "e", "f", "a")

	if st := b.Stats(); st.Delivered > st.Matched {
		t.Errorf("Delivered %d > Matched %d: remote offers were counted as local deliveries", st.Delivered, st.Matched)
	}
}

// Local publishes interleaved with remote offers share one queue: the
// consumer sees enqueue order, and overflow drops the oldest into the
// broker's Dropped counter.
func TestEdgeSubQueueOrderAndOverflow(t *testing.T) {
	n, b := edgeNode(t, Config{}, broker.WithQueueSize(4))
	h, err := n.SubscribeHandle(edgeSubscription())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("e%d", i)
		if i%2 == 0 {
			if err := b.Publish(edgeEvent(id)); err != nil {
				t.Fatal(err)
			}
		} else {
			n.remote(h, edgeEvent(id))
		}
		want = append(want, id)
	}
	if got := queued(h); fmt.Sprint(got) != fmt.Sprint(want[2:]) {
		t.Errorf("queue = %v, want the newest four in enqueue order %v", got, want[2:])
	}
	if st := b.Stats(); st.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", st.Dropped)
	}
}

// A subscription that never had a remote owner has one delivery path and
// never opens its window: its local deliveries hold no event IDs.
func TestEdgeSubNoWindowWithoutRemoteOwner(t *testing.T) {
	n, _ := edgeNode(t, Config{})
	h, err := n.SubscribeHandle(edgeSubscription())
	if err != nil {
		t.Fatal(err)
	}
	const events = 2000
	delivered := 0
	for i := 0; i < events; i++ {
		if err := n.Publish(edgeEvent(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
		delivered += len(queued(h))
	}
	if delivered != events {
		t.Errorf("delivered %d of %d local matches", delivered, events)
	}
	if h.(*edgeSub).win.Load() != nil {
		t.Errorf("window opened after %d local deliveries with no remote owner", events)
	}
	if st := n.Stats(); st.DedupWindows != 0 || st.Deduped != 0 {
		t.Errorf("DedupWindows = %d, Deduped = %d, want 0 and 0", st.DedupWindows, st.Deduped)
	}
}

// A membership change that gives the subscription its first remote owner
// opens its window with a snapshot of the events published here: the
// remote copy of an event delivered locally before the change is dropped,
// and after it both arrival orders dedup through the window.
func TestEdgeSubSnapshotCoversEarlierLocalDelivery(t *testing.T) {
	n, _ := edgeNode(t, Config{})
	h, err := n.SubscribeHandle(edgeSubscription())
	if err != nil {
		t.Fatal(err)
	}
	publish := func(id string) {
		t.Helper()
		if err := n.Publish(edgeEvent(id)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what string, deduped uint64, want ...string) {
		t.Helper()
		if got := queued(h); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: queue = %v, want %v", what, got, want)
		}
		if got := n.Stats().Deduped; got != deduped {
			t.Errorf("%s: Deduped = %d, want %d", what, got, deduped)
		}
	}

	publish("a")
	expect("before the change", 0, "a")

	other := ""
	for port := 2; port < 1000 && other == ""; port++ {
		id := fmt.Sprintf("127.0.0.1:%d", port)
		if slices.Contains(NewRing([]string{n.ID(), id}).Owners(edgeSubscription().Theme), id) {
			other = id
		}
	}
	if other == "" {
		t.Fatal("no member ID owns the subscription's theme")
	}
	n.mergeGossip([]broker.MemberInfo{{Node: other}})
	if st := n.Stats(); st.DedupWindows != 1 {
		t.Fatalf("DedupWindows = %d after the subscription gained remote owner %s, want 1", st.DedupWindows, other)
	}

	n.remote(h, edgeEvent("a"))
	expect("remote copy of an earlier local delivery", 1)

	publish("b")
	n.remote(h, edgeEvent("b"))
	expect("local then remote", 2, "b")

	n.remote(h, edgeEvent("c"))
	publish("c")
	expect("remote then local", 3, "c")
}

// An event without an ID is never suppressed and never enters the publish
// ring: a peer's forward of one is delivered locally, and every remote
// copy of one is delivered too, before and after the window opens.
func TestEdgeSubEmptyIDNeverSuppressed(t *testing.T) {
	n, _ := edgeNode(t, Config{})
	h, err := n.SubscribeHandle(edgeSubscription())
	if err != nil {
		t.Fatal(err)
	}
	conn, peerEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.ServePeer(conn, nil)
	}()
	defer func() {
		peerEnd.Close()
		<-done
	}()
	fr := broker.NewFrameReader(peerEnd)
	forward := func() {
		t.Helper()
		if err := broker.WriteFrame(peerEnd, &broker.Frame{
			Type:   broker.FrameForwardBatch,
			Events: []*event.Event{edgeEvent("")},
		}); err != nil {
			t.Fatal(err)
		}
		// Frames are served in order: the pong follows the forward's publish.
		if err := broker.WriteFrame(peerEnd, &broker.Frame{Type: broker.FramePing}); err != nil {
			t.Fatal(err)
		}
		if f, err := fr.ReadFrame(); err != nil || f.Type != broker.FramePong {
			t.Fatalf("read %v, %v; want a pong", f, err)
		}
	}

	forward()
	n.remote(h, edgeEvent(""))
	forward()
	n.remote(h, edgeEvent(""))
	if got := queued(h); fmt.Sprint(got) != fmt.Sprint([]string{"", "", "", ""}) {
		t.Errorf("queue = %q, want four deliveries without an ID", got)
	}
	if st := n.Stats(); st.Deduped != 0 || st.DedupWindows != 1 {
		t.Errorf("Deduped = %d, DedupWindows = %d; want 0 and 1", st.Deduped, st.DedupWindows)
	}
	n.pubMu.Lock()
	recorded := n.pubSeq
	n.pubMu.Unlock()
	if recorded != 0 {
		t.Errorf("publish ring recorded %d IDs, want none", recorded)
	}
}
