package query

import (
	"fmt"
	"net"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
	"thematicep/internal/faultinject"
)

type clusterNode struct {
	b    *broker.Broker
	srv  *broker.Server
	node *cluster.Node
	eng  *Engine
	addr string
}

// startQueryCluster brings up size federated brokers, each with its own
// continuous-query engine mounted over the cluster node (so registered
// queries see federated deliveries) and installed behind the server's
// query frames. Outbound peer links run through the shared injector.
func startQueryCluster(t *testing.T, size int, inj *faultinject.Injector) []*clusterNode {
	t.Helper()
	ns := make([]*clusterNode, size)
	addrs := make([]string, size)
	for i := range ns {
		b := broker.New(exactMatcher(), broker.WithReplayBuffer(0))
		srv := broker.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = &clusterNode{b: b, srv: srv, addr: addr.String()}
		addrs[i] = addr.String()
	}
	dial := inj.Dialer(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	})
	for i, tn := range ns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := cluster.New(tn.b, cluster.Config{
			Self:              tn.addr,
			Seeds:             peers,
			ReconnectMin:      5 * time.Millisecond,
			ReconnectMax:      50 * time.Millisecond,
			WriteTimeout:      200 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  150 * time.Millisecond,
			BreakerThreshold:  2,
			BreakerCooldown:   100 * time.Millisecond,
			Dial:              dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.srv.SetBackend(node)
		tn.srv.SetPeerHandler(node)
		tn.node = node
		tn.eng = New(node, WithFlushInterval(25*time.Millisecond))
		tn.srv.SetQueryRegistrar(tn.eng)
	}
	for _, tn := range ns {
		tn.node.Start()
	}
	t.Cleanup(func() {
		for _, tn := range ns {
			tn.eng.Close()
			tn.node.Close()
			tn.srv.Close()
			tn.b.Close()
		}
	})
	return ns
}

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

// TestClusterCountQueryAcrossPartitionHeal is the query-subsystem chaos
// acceptance soak: a count-burst query registered on the theme shard that
// owns it, fed by publishes from a different node, with seeded link chaos
// and a full partition/heal cycle between two bursts. The query must fire
// exactly once per burst excursion (no duplicate detections across the
// heal, nothing detected from forwards shed during the partition), every
// constituent must belong to its burst, and no event ID may appear in two
// detections.
func TestClusterCountQueryAcrossPartitionHeal(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:       42,
		LatencyMax: 500 * time.Microsecond,
		StallProb:  0.002,
		StallFor:   50 * time.Millisecond,
	})
	ns := startQueryCluster(t, 3, inj)
	nodeA, nodeB := ns[0], ns[1]
	ring := nodeA.node.Ring()
	tagB := findTag(t, ring, nodeB.addr)

	const window = 200 * time.Millisecond
	spec := &broker.QuerySpec{
		Name: "surge",
		Kind: string(KindCount),
		Subscription: &event.Subscription{
			Theme:      []string{tagB},
			Predicates: []event.Predicate{{Attr: "type", Value: "spike"}},
		},
		Window:      window,
		MinExpected: 3,
	}
	// Window state must live on the owning shard: the engine at B hosts
	// the query, and its feeding subscription is purely local there.
	h, err := nodeB.eng.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	detected := func() uint64 {
		for _, st := range nodeB.eng.Stats() {
			if st.Name == "surge" {
				return st.Detections
			}
		}
		return 0
	}

	// Bursts are published from A and federated to the owning shard B.
	// Events are spaced a few ms apart so a link stall or reconnect can
	// only shed a couple of them; minExpected 3 out of 8 leaves margin.
	burst := func(prefix string) {
		t.Helper()
		for i := 0; i < 8; i++ {
			if err := nodeA.node.Publish(&event.Event{
				ID:    fmt.Sprintf("%s-%d", prefix, i),
				Theme: []string{tagB},
				Tuples: []event.Tuple{
					{Attr: "type", Value: "spike"},
					{Attr: "seq", Value: fmt.Sprintf("%d", i)},
				},
			}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}

	// Phase 1 — a burst under mild link chaos fires the query once.
	burst("burst1")
	waitFor(t, "first burst detection", func() bool { return detected() >= 1 })
	time.Sleep(2 * window) // quiet gap: the excursion ends, the query re-arms

	// Phase 2 — partition: forwards from A are shed, so nothing reaches
	// the window on B and the query must stay silent.
	inj.Partition(true)
	waitFor(t, "A's breakers to open under partition", func() bool {
		for _, state := range nodeA.node.PeerStates() {
			if state != cluster.BreakerOpen {
				return false
			}
		}
		return true
	})
	burst("part")
	time.Sleep(2 * window)
	if n := detected(); n != 1 {
		t.Fatalf("detections during partition = %d, want 1 (shed forwards must not fire the query)", n)
	}

	// Phase 3 — heal: the mesh reconnects and a fresh burst fires the
	// query exactly once more. Federation dedup plus the engine's event-ID
	// ring must not let replayed or duplicate forwards double-fire it.
	inj.Partition(false)
	waitFor(t, "all breakers closed after heal", func() bool {
		for _, tn := range ns {
			st := tn.node.Stats()
			if st.PeersConnected != 2 || st.PeersOpen != 0 {
				return false
			}
		}
		return true
	})
	burst("burst2")
	waitFor(t, "post-heal burst detection", func() bool { return detected() >= 2 })
	time.Sleep(2 * window) // allow any duplicate path to land
	if n := detected(); n != 2 {
		t.Fatalf("total detections = %d, want exactly 2 (one per burst excursion)", n)
	}

	h.Close()
	detections, _ := h.Take(nil)
	if len(detections) != 2 {
		t.Fatalf("collected %d detections, want 2", len(detections))
	}
	seen := make(map[string]int)
	for i, d := range detections {
		if d.Query != "surge" {
			t.Errorf("detection %d query = %q, want surge", i, d.Query)
		}
		if len(d.Events) == 0 {
			t.Errorf("detection %d has no constituent events", i)
		}
		wantPrefix := fmt.Sprintf("burst%d", i+1)
		for _, e := range d.Events {
			if got := e.ID[:len(wantPrefix)]; got != wantPrefix {
				t.Errorf("detection %d constituent %s outside its burst (want prefix %s)",
					i, e.ID, wantPrefix)
			}
			seen[e.ID]++
		}
		if d.Probability != 1 {
			t.Errorf("detection %d probability = %v, want 1 (capped expectation)", i, d.Probability)
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("event %s appears in %d detections, want 1", id, n)
		}
	}
	t.Logf("soak: %d detections, engine stats %+v, injector stats %+v",
		len(detections), nodeB.eng.Stats(), inj.Stats())
}
