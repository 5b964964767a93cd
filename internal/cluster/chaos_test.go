package cluster_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
	"thematicep/internal/faultinject"
)

// startChaosCluster brings up size federated brokers whose outbound peer
// links all run through one seeded fault injector, with failure detection
// tuned fast enough for a short soak: small breaker threshold, quick
// heartbeats, tight deadlines. Replay is disabled so the per-broker
// Delivered <= Matched <= Scanned invariant holds exactly.
func startChaosCluster(t *testing.T, size int, inj *faultinject.Injector) []*testNode {
	t.Helper()
	ns := make([]*testNode, size)
	addrs := make([]string, size)
	for i := range ns {
		b := broker.New(exactMatcher(), broker.WithReplayBuffer(0))
		srv := broker.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = &testNode{b: b, srv: srv, addr: addr.String()}
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

// TestChaosSoakThreeNodeCluster is the fault-tolerance acceptance soak: a
// 3-node cluster under seeded injected latency, write stalls, partial
// writes, mid-frame resets, and byte corruption, followed by a full
// partition. Throughout: no deadlock (the test finishes), no duplicate
// delivery (event-ID dedup holds), and Delivered <= Matched <= Scanned on
// every broker. After the partition heals, every breaker returns to
// closed, remote registrations are reconciled, and cross-shard forwards
// resume — proven by a sentinel event arriving exactly once.
func TestChaosSoakThreeNodeCluster(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:        42,
		LatencyMax:  500 * time.Microsecond,
		StallProb:   0.002,
		StallFor:    120 * time.Millisecond,
		PartialProb: 0.002,
		ResetProb:   0.002,
		CorruptProb: 0.005,
	})
	ns := startChaosCluster(t, 3, inj)
	nodeA, nodeB, nodeC := ns[0], ns[1], ns[2]
	ring := nodeC.node.Ring()
	tagB := findTag(t, ring, nodeB.addr)
	tagC := findTag(t, ring, nodeC.addr)

	// One federated subscriber at C spanning the B and C shards: local
	// registration at C, remote registration at B, merged and de-duplicated
	// by event ID.
	sub := &event.Subscription{
		Theme:      []string{tagB, tagC},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	h, err := nodeC.node.SubscribeHandle(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, "remote registration on B", func() bool {
		return nodeB.b.Stats().Subscribers == 1
	})

	// Deliveries are tallied by event ID for the duplicate check.
	var mu sync.Mutex
	counts := make(map[string]int)
	recorded := func(id string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[id]
	}
	go func() {
		for d := range stream(h) {
			mu.Lock()
			counts[d.Event.ID]++
			mu.Unlock()
		}
	}()

	publish := func(id string) {
		t.Helper()
		if err := nodeA.node.Publish(&event.Event{
			ID:    id,
			Theme: []string{tagB, tagC},
			Tuples: []event.Tuple{
				{Attr: "type", Value: "parking event"},
				{Attr: "spot", Value: id},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1 — chaos while connected: resets and corruption kill links
	// mid-frame, stalls exercise the write deadlines, and the reconnect
	// machinery keeps re-establishing the mesh. Local publishing at A must
	// never fail (faults live in the federation layer).
	const chaosEvents = 150
	for i := 0; i < chaosEvents; i++ {
		publish(fmt.Sprintf("chaos-%d", i))
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 2 — partition: every outbound link fails and every redial is
	// refused, so the per-peer breakers on every node must trip open, and
	// publishes at A shed their forwards (counted) instead of wedging.
	inj.Partition(true)
	waitFor(t, "A's breakers to open under partition", func() bool {
		for _, state := range nodeA.node.PeerStates() {
			if state != cluster.BreakerOpen {
				return false
			}
		}
		return true
	})
	const partitionEvents = 50
	for i := 0; i < partitionEvents; i++ {
		publish(fmt.Sprintf("part-%d", i))
	}
	if st := nodeA.node.Stats(); st.ForwardsShed == 0 {
		t.Error("no forwards shed while every breaker was open")
	}
	if st := nodeA.node.Stats(); st.BreakerTrips == 0 {
		t.Error("BreakerTrips = 0 after a partition")
	}

	// Phase 3 — heal: half-open probes must succeed, every breaker on
	// every node must re-close, the mesh must reconnect, and B must
	// re-host C's remote registration.
	inj.Partition(false)
	waitFor(t, "all breakers closed and mesh reconnected after heal", func() bool {
		for _, tn := range ns {
			st := tn.node.Stats()
			if st.PeersConnected != 2 || st.PeersOpen != 0 {
				return false
			}
			for _, state := range tn.node.PeerStates() {
				if state != cluster.BreakerClosed {
					return false
				}
			}
		}
		return true
	})
	waitFor(t, "remote re-registration on B after heal", func() bool {
		return nodeB.b.Stats().Subscribers == 1
	})

	// Phase 4 — recovery: a post-heal event must arrive (forwards have
	// resumed) exactly once (dedup still holds across the disruption).
	publish("sentinel")
	waitFor(t, "sentinel delivery after heal", func() bool {
		return recorded("sentinel") >= 1
	})
	time.Sleep(300 * time.Millisecond) // allow any duplicate path to land
	if n := recorded("sentinel"); n != 1 {
		t.Errorf("sentinel delivered %d times, want exactly 1", n)
	}

	// Global duplicate check: despite resets, corruption, and the
	// partition, no event ID was ever delivered twice.
	mu.Lock()
	for id, n := range counts {
		if n > 1 {
			t.Errorf("event %s delivered %d times", id, n)
		}
	}
	delivered := len(counts)
	mu.Unlock()
	if delivered == 0 {
		t.Error("no deliveries at all during the soak")
	}
	t.Logf("soak: %d/%d distinct events delivered, injector stats %+v",
		delivered, chaosEvents+partitionEvents+1, inj.Stats())

	// Pipeline invariants on every broker (replay disabled): a delivery
	// implies a match implies a scan.
	for i, tn := range ns {
		st := tn.b.Stats()
		if st.Delivered > st.Matched || st.Matched > st.Scanned {
			t.Errorf("node %d invariant violated: delivered=%d matched=%d scanned=%d",
				i, st.Delivered, st.Matched, st.Scanned)
		}
	}
}
