package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
)

// testNode is one in-process federation member: broker + wire server +
// cluster node, all on a real TCP loopback port.
type testNode struct {
	b    *broker.Broker
	srv  *broker.Server
	node *cluster.Node
	addr string
}

func exactMatcher() broker.Matcher {
	return broker.MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
}

// listen opens a TCP listener on addr ("127.0.0.1:0" for a free port) for
// a node's server to serve.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func startCluster(t *testing.T, size int) []*testNode {
	t.Helper()
	ns := make([]*testNode, size)
	addrs := make([]string, size)
	lns := make([]net.Listener, size)
	for i := range ns {
		lns[i] = listen(t, "127.0.0.1:0")
		ns[i] = &testNode{b: broker.New(exactMatcher()), addr: lns[i].Addr().String()}
		addrs[i] = ns[i].addr
	}
	for i, tn := range ns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := cluster.New(tn.b, cluster.Config{
			Self:         tn.addr,
			Seeds:        peers,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.srv = broker.NewServer(tn.b, broker.WithBackend(node))
		tn.srv.Serve(lns[i])
	}
	for _, tn := range ns {
		tn.node.Start()
	}
	t.Cleanup(func() {
		for _, tn := range ns {
			tn.node.Close()
			tn.srv.Close()
			tn.b.Close()
		}
	})
	return ns
}

// findTag searches for a theme tag the given node owns on the ring.
func findTag(t *testing.T, r *cluster.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 5000; i++ {
		tag := fmt.Sprintf("theme-%d", i)
		if r.Owner(tag) == owner {
			return tag
		}
	}
	t.Fatalf("no tag owned by %q in 5000 candidates", owner)
	return ""
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stream pumps h's queue into a channel, so a test reads deliveries one at a
// time: the hook wakes the pump, Take empties the queue, and the channel
// closes once the subscription has closed and everything it queued has been
// received. Call it once per handle: it owns the handle's hook.
func stream(h broker.SubHandle) <-chan broker.Delivery {
	out := make(chan broker.Delivery)
	wake := make(chan struct{}, 1)
	h.SetNotify(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	go func() {
		defer close(out)
		var batch []broker.Delivery
		for open := true; open; {
			<-wake
			batch, open = h.Take(batch[:0])
			for _, d := range batch {
				out <- d
			}
		}
	}()
	return out
}

func recvDelivery(t *testing.T, ch <-chan broker.Delivery) broker.Delivery {
	t.Helper()
	select {
	case d, ok := <-ch:
		if !ok {
			t.Fatal("delivery channel closed")
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	panic("unreachable")
}

func assertQuiet(t *testing.T, ch <-chan broker.Delivery, d time.Duration) {
	t.Helper()
	select {
	case got, ok := <-ch:
		if ok {
			t.Fatalf("unexpected extra delivery: %+v", got)
		}
		t.Fatal("delivery channel closed unexpectedly")
	case <-time.After(d):
	}
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad value for %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func scrape(t *testing.T, tn *testNode) string {
	t.Helper()
	ms := httptest.NewServer(broker.MetricsHandler(tn.b, tn.node))
	defer ms.Close()
	resp, err := http.Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestThreeBrokerFederation is the acceptance scenario: an event published
// at broker A reaches a matching thematic subscriber attached to broker C
// exactly once even though its theme set is owned by two shards (dedup),
// keeps flowing after a peer link is killed and reconnects, and the
// federation counters surface through the Prometheus handler.
func TestThreeBrokerFederation(t *testing.T) {
	ns := startCluster(t, 3)
	nodeA, nodeB, nodeC := ns[0], ns[1], ns[2]
	ring := nodeC.node.Ring()
	tagB := findTag(t, ring, nodeB.addr)
	tagC := findTag(t, ring, nodeC.addr)

	// Thematic subscriber attached to broker C; its theme set spans the B
	// and C shards, so it is registered locally at C and remotely at B.
	consumer, err := broker.Dial(nodeC.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	sub := &event.Subscription{
		Theme:      []string{tagB, tagC},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	id, deliveries, err := consumer.Subscribe(sub, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(id, nodeC.addr) {
		t.Errorf("subscription id %q should carry the home shard identity", id)
	}
	waitFor(t, "remote registration on B", func() bool {
		return nodeB.b.Stats().Subscribers == 1
	})

	producer, err := broker.Dial(nodeA.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	publish := func(spot string) {
		t.Helper()
		if err := producer.Publish(&event.Event{
			Theme: []string{tagB, tagC},
			Tuples: []event.Tuple{
				{Attr: "type", Value: "parking event"},
				{Attr: "spot", Value: spot},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Exactly once: the event matches on both the B and C shards; the C
	// node must suppress the second copy by event ID.
	publish("e1")
	d := recvDelivery(t, deliveries)
	if v, _ := d.Event.Value("spot"); v != "e1" || d.SubscriptionID != id {
		t.Fatalf("delivery = %+v, want spot=e1 for %s", d, id)
	}
	assertQuiet(t, deliveries, 400*time.Millisecond)
	waitFor(t, "dedup of the duplicate shard match", func() bool {
		return nodeC.node.Stats().Deduped >= 1
	})

	// Kill the C->B peer link; it must reconnect with backoff and
	// re-register the remote subscription.
	if !nodeC.node.DropPeer(nodeB.addr) {
		t.Fatal("no live link to B to drop")
	}
	waitFor(t, "peer reconnect", func() bool {
		return nodeC.node.Stats().PeerReconnects >= 1
	})
	waitFor(t, "remote re-registration on B", func() bool {
		return nodeB.b.Stats().Subscribers >= 1
	})

	// Traffic keeps flowing after the blip, still exactly once.
	publish("e2")
	d = recvDelivery(t, deliveries)
	if v, _ := d.Event.Value("spot"); v != "e2" {
		t.Fatalf("post-reconnect delivery = %+v, want spot=e2", d)
	}
	assertQuiet(t, deliveries, 400*time.Millisecond)

	// Cluster counters are visible through the Prometheus handler.
	bodyA := scrape(t, nodeA)
	if got := metricValue(t, bodyA, "thematicep_cluster_forwarded_total"); got != 4 {
		t.Errorf("A forwarded_total = %v, want 4 (2 events x 2 owner shards)", got)
	}
	bodyC := scrape(t, nodeC)
	if got := metricValue(t, bodyC, "thematicep_cluster_deduped_total"); got < 1 {
		t.Errorf("C deduped_total = %v, want >= 1", got)
	}
	if got := metricValue(t, bodyC, "thematicep_cluster_peer_reconnects_total"); got < 1 {
		t.Errorf("C peer_reconnects_total = %v, want >= 1", got)
	}
	if !strings.Contains(bodyA, "# TYPE thematicep_cluster_forwarded_total counter") {
		t.Error("cluster counters should be typed counter")
	}

	// Unsubscribing tears the remote registration down as well.
	if err := consumer.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "remote deregistration on B", func() bool {
		return nodeB.b.Stats().Subscribers == 0
	})
}

// TestSubscribeRedirect: a themed subscription arriving at a broker owning
// none of its themes is redirected to the owning shard, and following the
// redirect succeeds.
func TestSubscribeRedirect(t *testing.T) {
	ns := startCluster(t, 3)
	nodeA := ns[0]
	ring := nodeA.node.Ring()
	tagB := findTag(t, ring, ns[1].addr)

	c, err := broker.Dial(nodeA.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub := &event.Subscription{
		Theme:      []string{tagB},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	_, _, err = c.Subscribe(sub, false)
	var redirect *broker.RedirectError
	if !errors.As(err, &redirect) {
		t.Fatalf("expected redirect, got %v", err)
	}
	if redirect.Addr != ns[1].addr {
		t.Fatalf("redirected to %q, want owning shard %q", redirect.Addr, ns[1].addr)
	}

	c2, err := broker.Dial(redirect.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.Subscribe(sub, false); err != nil {
		t.Fatalf("subscribe at owning shard: %v", err)
	}
}

// TestThemelessSubscriptionSpansAllShards: a subscription without theme
// tags has no partition key, so it is registered on every shard and sees
// events published anywhere — still exactly once.
func TestThemelessSubscriptionSpansAllShards(t *testing.T) {
	ns := startCluster(t, 3)
	nodeA, nodeB, nodeC := ns[0], ns[1], ns[2]

	consumer, err := broker.Dial(nodeA.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	sub := &event.Subscription{
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	_, deliveries, err := consumer.Subscribe(sub, false)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "remote registrations on B and C", func() bool {
		return nodeB.b.Stats().Subscribers == 1 && nodeC.b.Stats().Subscribers == 1
	})

	// Publish at B an event whose only theme is owned by C: it matches
	// B's copy locally and C's copy after forwarding; A must deliver once.
	tagC := findTag(t, nodeB.node.Ring(), nodeC.addr)
	producer, err := broker.Dial(nodeB.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.Publish(&event.Event{
		Theme:  []string{tagC},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, deliveries)
	if d.Event == nil || len(d.Event.Theme) != 1 {
		t.Fatalf("delivery = %+v", d)
	}
	assertQuiet(t, deliveries, 400*time.Millisecond)
}

// TestEmbeddedNodePublishSubscribe uses the Node API directly (no TCP
// client), the path examples and embedding applications take.
func TestEmbeddedNodePublishSubscribe(t *testing.T) {
	ns := startCluster(t, 2)
	nodeA, nodeB := ns[0], ns[1]
	tagB := findTag(t, nodeA.node.Ring(), nodeB.addr)

	sub := &event.Subscription{
		Theme:      []string{tagB},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	h, err := nodeA.node.SubscribeHandle(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, "remote registration on B", func() bool {
		return nodeB.b.Stats().Subscribers == 1
	})

	if err := nodeB.node.Publish(&event.Event{
		Theme:  []string{tagB},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}); err != nil {
		t.Fatal(err)
	}
	deliveries := stream(h)
	d := recvDelivery(t, deliveries)
	if d.SubscriptionID != h.ID() {
		t.Errorf("delivery sub id = %q, want %q", d.SubscriptionID, h.ID())
	}
	assertQuiet(t, deliveries, 300*time.Millisecond)
}

// A federated subscription that has delivered nothing holds what its local
// registration holds — no queue at all until its first delivery — and a few
// hundred bytes more: no second queue, no goroutine stack, and no dedup
// window while it has no remote owner. Sized to DedupWindow up front the
// window was ~150 KB per subscription, 590 MB for the benchmark's 4k; with
// a 64-slot channel per registration, 4,000 of them held 20.7 MB.
func TestIdleFederatedSubscriptionsStaySmall(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	node, err := cluster.New(b, cluster.Config{Self: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	const subs = 4000
	for i := 0; i < subs; i++ {
		if _, err := node.SubscribeHandle(&event.Subscription{
			Theme:      []string{"land transport"},
			Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	grew := float64(int64(heap()-before)) / (1 << 20)
	t.Logf("%d idle federated subscriptions hold %.1f MB of heap", subs, grew)
	if grew >= 4 {
		t.Errorf("%d idle federated subscriptions hold %.1f MB of heap, want under 4", subs, grew)
	}
}
