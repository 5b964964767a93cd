package cluster_test

import (
	"net"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
)

// TestStalledPeerTripsBreaker is the no-unbounded-blocking acceptance
// check: a peer whose connection accepts but never progresses (writes
// block forever) must produce timely write-deadline failures and a breaker
// trip — never a wedged forward goroutine — and forwards toward the dead
// peer must shed, counted.
func TestStalledPeerTripsBreaker(t *testing.T) {
	stalled := "stalled-peer:1"
	b := broker.New(exactMatcher())
	defer b.Close()
	node, err := cluster.New(b, cluster.Config{
		Self:             "self:1",
		Seeds:            []string{stalled},
		ReconnectMin:     5 * time.Millisecond,
		ReconnectMax:     20 * time.Millisecond,
		WriteTimeout:     50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second, // stay open for the assertions
		Dial: func(addr string) (net.Conn, error) {
			// A connection that accepts the dial but stalls forever: the
			// far end of the pipe is never read, so the hello write can
			// only end via the armed write deadline.
			ours, theirs := net.Pipe()
			_ = theirs // held open, never read
			return ours, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Start()

	start := time.Now()
	waitFor(t, "breaker to open on the stalled peer", func() bool {
		return node.PeerStates()[stalled] == cluster.BreakerOpen
	})
	// Two stalled hellos at 50ms each plus backoff: the trip must be
	// timely, not the product of some minutes-long default.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("breaker took %v to open on a stalled peer", elapsed)
	}
	if st := node.Stats(); st.BreakerTrips == 0 {
		t.Error("BreakerTrips = 0 after an open breaker")
	}

	// Forwards toward the open breaker shed immediately and are counted.
	tag := findTag(t, node.Ring(), stalled)
	if err := node.Publish(&event.Event{
		Theme:  []string{tag},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}); err != nil {
		t.Fatal(err)
	}
	st := node.Stats()
	if st.ForwardsShed != 1 {
		t.Errorf("ForwardsShed = %d, want 1", st.ForwardsShed)
	}
	if st.PeersOpen != 1 {
		t.Errorf("PeersOpen = %d, want 1", st.PeersOpen)
	}
}

// TestSilentPeerDroppedByHeartbeat: a peer that accepts connections and
// even reads our frames, but never sends anything back, must be detected
// by the heartbeat read deadline — and because the breaker only closes on
// proven liveness (a received frame), the repeated silent connections
// accumulate failures until the breaker opens.
func TestSilentPeerDroppedByHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, answer nothing.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	b := broker.New(exactMatcher())
	defer b.Close()
	node, err := cluster.New(b, cluster.Config{
		Self:              "self:1",
		Seeds:             []string{ln.Addr().String()},
		ReconnectMin:      5 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
		WriteTimeout:      100 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  75 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Start()

	waitFor(t, "heartbeat failures to open the breaker", func() bool {
		return node.PeerStates()[ln.Addr().String()] == cluster.BreakerOpen
	})
}

// TestReconnectAfterPeerRestart: the jittered backoff still reconnects
// promptly when a peer comes back, and the breaker returns to closed.
func TestReconnectAfterPeerRestart(t *testing.T) {
	ns := startCluster(t, 2)
	nodeA, nodeB := ns[0], ns[1]

	waitFor(t, "initial link", func() bool {
		return nodeA.node.Stats().PeersConnected == 1
	})
	// Bounce the link a few times; each drop must heal.
	for i := 0; i < 3; i++ {
		if !nodeA.node.DropPeer(nodeB.addr) {
			t.Fatalf("round %d: no live link to drop", i)
		}
		waitFor(t, "reconnect", func() bool {
			return nodeA.node.Stats().PeersConnected == 1 &&
				nodeA.node.Stats().PeerReconnects >= uint64(i+1)
		})
	}
	if state := nodeA.node.PeerStates()[nodeB.addr]; state != cluster.BreakerClosed {
		t.Errorf("breaker = %v after healthy reconnects, want closed", state)
	}
}
