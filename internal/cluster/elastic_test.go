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
	"thematicep/internal/wal"
)

// elasticNode is one gossip-bootstrapped member that can be killed and
// restarted mid-test (unlike the static-mesh testNode cleanup).
type elasticNode struct {
	b    *broker.Broker
	srv  *broker.Server
	node *cluster.Node
	addr string
	once sync.Once
}

// stop tears the member down; safe to call twice (tests kill nodes
// explicitly and the cleanup sweeps the survivors).
func (en *elasticNode) stop() {
	en.once.Do(func() {
		en.node.Close()
		en.srv.Close()
		en.b.Close()
	})
}

// elasticConfig tunes failure detection fast enough for a short test:
// quick heartbeats spread gossip, a sub-second suspect timeout converts
// missed heartbeats into deaths, and a small breaker threshold produces
// the down-observations that start suspicion.
func elasticConfig(self string, seeds []string, dial func(string) (net.Conn, error)) cluster.Config {
	return cluster.Config{
		Self:              self,
		Seeds:             seeds,
		SuspectTimeout:    400 * time.Millisecond,
		ReconnectMin:      5 * time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
		WriteTimeout:      200 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
		Dial:              dial,
	}
}

// startElastic brings up one member. addr is "127.0.0.1:0" for a fresh
// port or a previous member's address for a restart-in-place; seeds
// bootstrap gossip (empty = founding member). Extra broker options wire in
// a journal for durability tests.
func startElastic(t *testing.T, addr string, seeds []string, dial func(string) (net.Conn, error), bopts ...broker.Option) *elasticNode {
	t.Helper()
	opts := append([]broker.Option{broker.WithReplayBuffer(0)}, bopts...)
	b := broker.New(exactMatcher(), opts...)
	ln := listen(t, addr)
	node, err := cluster.New(b, elasticConfig(ln.Addr().String(), seeds, dial))
	if err != nil {
		t.Fatal(err)
	}
	srv := broker.NewServer(b, broker.WithBackend(node))
	srv.Serve(ln)
	node.Start()
	en := &elasticNode{b: b, srv: srv, node: node, addr: ln.Addr().String()}
	t.Cleanup(en.stop)
	return en
}

func tcpDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}

// memberStates reports a node's view as addr -> state string.
func memberStates(en *elasticNode) map[string]string {
	out := make(map[string]string)
	for _, m := range en.node.Members() {
		out[m.Node] = m.State.String()
	}
	return out
}

// aliveCount counts members this node believes alive.
func aliveCount(en *elasticNode) int {
	n := 0
	for _, s := range memberStates(en) {
		if s == "alive" {
			n++
		}
	}
	return n
}

// allSee waits until every listed node's view has exactly want alive
// members and a fully connected link set to the other live members.
func allSee(t *testing.T, what string, nodes []*elasticNode, want int) {
	t.Helper()
	waitFor(t, what, func() bool {
		for _, en := range nodes {
			if aliveCount(en) != want {
				return false
			}
			if st := en.node.Stats(); st.PeersConnected < want-1 {
				return false
			}
		}
		return true
	})
}

// TestGossipJoinFromSingleSeed: B and C know only the seed A, yet must
// discover each other transitively through A's gossip and form a full
// mesh — the rings converge without any member holding a complete static
// peer list.
func TestGossipJoinFromSingleSeed(t *testing.T) {
	a := startElastic(t, "127.0.0.1:0", nil, tcpDial)
	b := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	c := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)

	allSee(t, "3-member convergence from one seed", []*elasticNode{a, b, c}, 3)

	// B and C never had each other configured; the link is gossip-built.
	if b.node.Stats().Peers != 2 {
		t.Errorf("B tracks %d peer links, want 2 (A static + C discovered)", b.node.Stats().Peers)
	}
	// Every node computes the same ring.
	tag := "convergence-probe"
	owner := a.node.Ring().Owner(tag)
	for _, en := range []*elasticNode{b, c} {
		if got := en.node.Ring().Owner(tag); got != owner {
			t.Errorf("%s ring owner for %q = %q, want %q", en.addr, tag, got, owner)
		}
	}
}

// TestRebalanceHandoffOnJoin: a federated subscription whose theme shard
// moves to a newly joined member must be handed off — registered on the
// new owner, unregistered from the old — and deliveries must stay exactly
// once through the transition (dup suppression during handoff).
func TestRebalanceHandoffOnJoin(t *testing.T) {
	a := startElastic(t, "127.0.0.1:0", nil, tcpDial)
	b := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	allSee(t, "2-member convergence", []*elasticNode{a, b}, 2)

	// Reserve C's port first so we can pick a tag whose ownership will move
	// B -> C when C joins.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cAddr := probe.Addr().String()
	probe.Close()
	ring2 := cluster.NewRing([]string{a.addr, b.addr})
	ring3 := cluster.NewRing([]string{a.addr, b.addr, cAddr})
	var tag string
	for i := 0; i < 20000; i++ {
		cand := fmt.Sprintf("moving-theme-%d", i)
		if ring2.Owner(cand) == b.addr && ring3.Owner(cand) == cAddr {
			tag = cand
			break
		}
	}
	if tag == "" {
		t.Fatal("no tag moves B -> C in 20000 candidates")
	}

	sub := &event.Subscription{
		Theme:      []string{tag},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	h, err := a.node.SubscribeHandle(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	waitFor(t, "remote registration on the old owner B", func() bool {
		return b.b.Stats().Subscribers == 1
	})

	// Tally deliveries by event ID while the handoff happens underneath.
	var mu sync.Mutex
	counts := make(map[string]int)
	go func() {
		for d := range stream(h) {
			mu.Lock()
			counts[d.Event.ID]++
			mu.Unlock()
		}
	}()
	publish := func(en *elasticNode, id string) {
		t.Helper()
		if err := en.node.Publish(&event.Event{
			ID:     id,
			Theme:  []string{tag},
			Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Publish through the join so some events straddle the window where
	// both B and C may briefly host the registration.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			publish(a, fmt.Sprintf("straddle-%d", i))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	c := startElastic(t, cAddr, []string{a.addr}, tcpDial)
	<-done

	allSee(t, "3-member convergence after join", []*elasticNode{a, b, c}, 3)
	waitFor(t, "handoff: registered on C, unregistered from B", func() bool {
		return c.b.Stats().Subscribers == 1 && b.b.Stats().Subscribers == 0
	})

	// Post-handoff traffic flows through the new owner, exactly once —
	// published at B, whose ring now points at C.
	publish(b, "post-handoff")
	waitFor(t, "post-handoff delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return counts["post-handoff"] >= 1
	})
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n > 1 {
			t.Errorf("event %s delivered %d times across the handoff", id, n)
		}
	}
	if counts["post-handoff"] != 1 {
		t.Errorf("post-handoff delivered %d times, want exactly 1", counts["post-handoff"])
	}
}

// TestCrashSuspectDeadRejoin: a killed member is suspected (breaker
// evidence), declared dead after the timeout, dropped from the ring and
// the link tables of the members that discovered it by gossip — then a
// restart at the same address refutes the death rumor with a bumped
// incarnation and rejoins.
func TestCrashSuspectDeadRejoin(t *testing.T) {
	a := startElastic(t, "127.0.0.1:0", nil, tcpDial)
	b := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	c := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	allSee(t, "3-member convergence", []*elasticNode{a, b, c}, 3)

	cAddr := c.addr
	c.stop()

	// Suspicion then death propagates to both survivors; the dead member
	// leaves the ring and — being a gossip discovery, not a configured
	// seed — its links are dropped, so no half-open probes target a
	// departed peer forever.
	waitFor(t, "survivors declare C dead", func() bool {
		return memberStates(a)[cAddr] == "dead" && memberStates(b)[cAddr] == "dead"
	})
	waitFor(t, "C's link dropped on the survivors", func() bool {
		_, aHas := a.node.PeerStates()[cAddr]
		_, bHas := b.node.PeerStates()[cAddr]
		return !aHas && !bHas
	})
	for _, tn := range []*elasticNode{a, b} {
		for i := 0; i < 100; i++ {
			if owner := tn.node.Ring().Owner(fmt.Sprintf("t-%d", i)); owner == cAddr {
				t.Fatalf("%s still routes theme t-%d to the dead member", tn.addr, i)
			}
		}
	}
	var inc uint64
	for _, m := range a.node.Members() {
		if m.Node == cAddr {
			inc = m.Incarnation
		}
	}

	// Restart in place: the new process starts at incarnation 1, hears the
	// death rumor about its own address, and must refute it by announcing a
	// higher incarnation.
	c2 := startElastic(t, cAddr, []string{a.addr}, tcpDial)
	allSee(t, "rejoin after restart", []*elasticNode{a, b, c2}, 3)
	for _, m := range a.node.Members() {
		if m.Node == cAddr && m.Incarnation <= inc {
			t.Errorf("rejoined member incarnation %d, want > %d (death refutation)", m.Incarnation, inc)
		}
	}
}

// TestSubscribeRacingRingChange: subscriptions registered concurrently
// with a member join must land on the post-join owners — every one of
// them is publishable-to exactly once after convergence, whichever side
// of the ring swap its registration raced.
func TestSubscribeRacingRingChange(t *testing.T) {
	a := startElastic(t, "127.0.0.1:0", nil, tcpDial)
	b := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	allSee(t, "2-member convergence", []*elasticNode{a, b}, 2)

	const subCount = 24
	var mu sync.Mutex
	counts := make(map[string]int)
	handles := make([]broker.SubHandle, subCount)

	// Half the subscribes land before the join starts, half race it.
	// Themes route; predicates match. Each subscription gets a distinct
	// predicate so its event is delivered to it alone.
	subscribeOne := func(i int) {
		h, err := a.node.SubscribeHandle(&event.Subscription{
			Theme:      []string{fmt.Sprintf("race-theme-%d", i)},
			Predicates: []event.Predicate{{Attr: "type", Value: fmt.Sprintf("race-kind-%d", i)}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		handles[i] = h
		go func() {
			for d := range stream(h) {
				mu.Lock()
				counts[d.Event.ID]++
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < subCount/2; i++ {
		subscribeOne(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := subCount / 2; i < subCount; i++ {
			subscribeOne(i)
		}
	}()
	c := startElastic(t, "127.0.0.1:0", []string{a.addr}, tcpDial)
	wg.Wait()
	allSee(t, "3-member convergence", []*elasticNode{a, b, c}, 3)
	for _, h := range handles {
		if h != nil {
			defer h.Close()
		}
	}

	// Convergence: each non-self owner hosts exactly its share of remote
	// copies under the final ring.
	ring := cluster.NewRing([]string{a.addr, b.addr, c.addr})
	want := map[string]int{}
	for i := 0; i < subCount; i++ {
		if o := ring.Owner(fmt.Sprintf("race-theme-%d", i)); o != a.addr {
			want[o]++
		}
	}
	waitFor(t, "remote registrations settle on the post-join owners", func() bool {
		return b.b.Stats().Subscribers == want[b.addr] && c.b.Stats().Subscribers == want[c.addr]
	})

	// Every subscription is reachable: publish one event per theme at B
	// and C alternately; each must arrive exactly once.
	for i := 0; i < subCount; i++ {
		src := b
		if i%2 == 1 {
			src = c
		}
		if err := src.node.Publish(&event.Event{
			ID:     fmt.Sprintf("race-ev-%d", i),
			Theme:  []string{fmt.Sprintf("race-theme-%d", i)},
			Tuples: []event.Tuple{{Attr: "type", Value: fmt.Sprintf("race-kind-%d", i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every racing subscription delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < subCount; i++ {
			if counts[fmt.Sprintf("race-ev-%d", i)] < 1 {
				return false
			}
		}
		return true
	})
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n != 1 {
			t.Errorf("event %s delivered %d times, want exactly 1", id, n)
		}
	}
}

// TestElasticChaosSoak is the elastic-cluster acceptance soak: a gossip
// federation under injected faults cycles through a partition, a live
// join, and a kill-and-restart of a WAL-backed member. Throughout: no
// event is ever delivered twice; after each disruption heals, a sentinel
// event arrives exactly once; every breaker re-closes; and the restarted
// member serves its WAL-recovered subscription.
func TestElasticChaosSoak(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:        7,
		LatencyMax:  300 * time.Microsecond,
		StallProb:   0.001,
		StallFor:    80 * time.Millisecond,
		PartialProb: 0.001,
		ResetProb:   0.001,
		CorruptProb: 0.002,
	})
	dial := inj.Dialer(tcpDial)

	a := startElastic(t, "127.0.0.1:0", nil, dial)
	b := startElastic(t, "127.0.0.1:0", []string{a.addr}, dial)

	// C is the durable member: its broker journals registrations to a WAL.
	dataDir := t.TempDir()
	wlog, _, err := wal.Open(dataDir, wal.Options{Fsync: wal.FsyncPolicy{Never: true}})
	if err != nil {
		t.Fatal(err)
	}
	c := startElastic(t, "127.0.0.1:0", []string{a.addr}, dial, broker.WithJournal(wlog))
	allSee(t, "3-member bootstrap", []*elasticNode{a, b, c}, 3)

	tagB := findTag(t, a.node.Ring(), b.addr)
	tagC := findTag(t, a.node.Ring(), c.addr)
	sub := &event.Subscription{
		ID:         "soak-sub",
		Theme:      []string{tagB, tagC},
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
	h, err := c.node.SubscribeHandle(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "remote registration on B", func() bool {
		return b.b.Stats().Subscribers == 1
	})

	var mu sync.Mutex
	counts := make(map[string]int)
	drain := func(h broker.SubHandle) {
		go func() {
			for d := range stream(h) {
				mu.Lock()
				counts[d.Event.ID]++
				mu.Unlock()
			}
		}()
	}
	drain(h)
	count := func(id string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[id]
	}
	publishAs := func(typ, id string) {
		t.Helper()
		if err := a.node.Publish(&event.Event{
			ID:    id,
			Theme: []string{tagB, tagC},
			Tuples: []event.Tuple{
				{Attr: "type", Value: typ},
				{Attr: "spot", Value: id},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(id string) {
		t.Helper()
		publishAs("parking event", id)
	}
	sentinel := func(phase string) {
		t.Helper()
		publish(phase)
		waitFor(t, phase+" sentinel delivery", func() bool { return count(phase) >= 1 })
	}

	// Phase 1 — chaos while connected.
	for i := 0; i < 100; i++ {
		publish(fmt.Sprintf("chaos-%d", i))
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	sentinel("sentinel-chaos")

	// Phase 2 — partition: breakers trip, forwards shed, members go
	// suspect. SuspectTimeout outlasts the partition, so nobody is
	// declared dead and the ring stays stable.
	inj.Partition(true)
	waitFor(t, "A's breakers open under partition", func() bool {
		for _, s := range a.node.PeerStates() {
			if s != cluster.BreakerOpen {
				return false
			}
		}
		return true
	})
	for i := 0; i < 30; i++ {
		publish(fmt.Sprintf("part-%d", i))
	}
	if a.node.Stats().ForwardsShed == 0 {
		t.Error("no forwards shed during the partition")
	}

	// Phase 3 — heal: breakers re-close, suspicion is refuted, remote
	// registrations reconcile, traffic resumes exactly once.
	inj.Partition(false)
	waitFor(t, "breakers re-closed and mesh reconnected", func() bool {
		for _, en := range []*elasticNode{a, b, c} {
			st := en.node.Stats()
			if st.PeersConnected < 2 || st.PeersOpen != 0 {
				return false
			}
		}
		return true
	})
	allSee(t, "all alive after heal", []*elasticNode{a, b, c}, 3)
	waitFor(t, "remote re-registration on B after heal", func() bool {
		return b.b.Stats().Subscribers == 1
	})
	sentinel("sentinel-heal")

	// Phase 4 — live join: D enters through the seed, the ring rebalances,
	// and delivery stays exactly-once through the handoff.
	d := startElastic(t, "127.0.0.1:0", []string{a.addr}, dial)
	allSee(t, "4-member convergence after join", []*elasticNode{a, b, c, d}, 4)
	for i := 0; i < 50; i++ {
		publish(fmt.Sprintf("join-%d", i))
	}
	waitFor(t, "post-join registrations settle", func() bool {
		// The subscription's home is C; each current owner of tagB/tagC
		// (minus C itself) must host exactly one remote copy.
		owners := map[string]bool{}
		for _, o := range c.node.Ring().Owners([]string{tagB, tagC}) {
			if o != c.addr {
				owners[o] = true
			}
		}
		for _, en := range []*elasticNode{a, b, d} {
			wantSubs := 0
			if owners[en.addr] {
				wantSubs = 1
			}
			if en.b.Stats().Subscribers != wantSubs {
				return false
			}
		}
		return true
	})
	sentinel("sentinel-join")

	// Quiesce before the kill. sentinel-join can reach C through B's remote
	// copy while A's forward queue to an owner still holds a stalled
	// backlog; C's dedup window dies with it, so a backlog flushed after the
	// restart would be delivered a second time on h2 — a property of this
	// test's in-memory kill, not a broker duplicate. A fence is a forward
	// that matches only a local observer on each owner: links are FIFO and
	// a peer publishes forwards one by one, so once every owner has seen a
	// fence, everything A forwarded before it has been processed there.
	var fencedMu sync.Mutex
	fenced := make(map[string]bool)
	var observers []*broker.Subscriber
	for _, en := range []*elasticNode{b, c, d} {
		obs, err := en.b.Subscribe(&event.Subscription{
			Predicates: []event.Predicate{{Attr: "type", Value: "fence"}},
		}, broker.Ephemeral())
		if err != nil {
			t.Fatal(err)
		}
		observers = append(observers, obs)
		go func(addr string) {
			for range stream(obs) {
				fencedMu.Lock()
				fenced[addr] = true
				fencedMu.Unlock()
			}
		}(en.addr)
	}
	fences := 0
	waitFor(t, "A's forwards processed by every owner", func() bool {
		// A fence can be lost to an injected fault like any forward, so
		// each poll sends another behind it.
		publishAs("fence", fmt.Sprintf("fence-%d", fences))
		fences++
		fencedMu.Lock()
		defer fencedMu.Unlock()
		for _, o := range a.node.Ring().Owners([]string{tagB, tagC}) {
			if o != a.addr && !fenced[o] {
				return false
			}
		}
		return true
	})
	for _, obs := range observers {
		obs.Close()
	}

	// Phase 5 — kill -9 the durable member: Seal freezes the WAL exactly
	// like the daemon's crash path, so the teardown's unsubscribe storm
	// cannot erase the registration, then the process state is torn down.
	wlog.Seal()
	c.stop()
	wlog.Close()

	// Restart in place with the same data dir: replay must recover the
	// subscription, the node re-registers it before serving, and the
	// revived member refutes its own death rumor to rejoin.
	wlog2, recovered, err := wal.Open(dataDir, wal.Options{Fsync: wal.FsyncPolicy{Never: true}})
	if err != nil {
		t.Fatalf("WAL reopen after crash: %v", err)
	}
	defer wlog2.Close()
	rsub := recovered.Subs["soak-sub"]
	if rsub == nil {
		t.Fatalf("subscription not recovered from WAL; state has %d subs", len(recovered.Subs))
	}
	c2 := startElastic(t, c.addr, []string{a.addr}, dial, broker.WithJournal(wlog2))
	h2, err := c2.node.SubscribeHandle(rsub)
	if err != nil {
		t.Fatalf("re-registering recovered subscription: %v", err)
	}
	defer h2.Close()
	drain(h2)

	allSee(t, "restarted member rejoined", []*elasticNode{a, b, c2, d}, 4)
	waitFor(t, "recovered registration reconciled to remote owners", func() bool {
		owners := map[string]bool{}
		for _, o := range c2.node.Ring().Owners([]string{tagB, tagC}) {
			if o != c2.addr {
				owners[o] = true
			}
		}
		for _, en := range []*elasticNode{a, b, d} {
			wantSubs := 0
			if owners[en.addr] {
				wantSubs = 1
			}
			if en.b.Stats().Subscribers != wantSubs {
				return false
			}
		}
		return true
	})
	sentinel("sentinel-recovery")

	// Final settle, then the global assertions.
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	dupes := 0
	for id, n := range counts {
		if n > 1 {
			dupes++
			t.Errorf("event %s delivered %d times", id, n)
		}
	}
	total := len(counts)
	mu.Unlock()
	for _, phase := range []string{"sentinel-chaos", "sentinel-heal", "sentinel-join", "sentinel-recovery"} {
		if got := count(phase); got != 1 {
			t.Errorf("%s delivered %d times, want exactly 1", phase, got)
		}
	}
	for _, en := range []*elasticNode{a, b, c2, d} {
		for peerID, s := range en.node.PeerStates() {
			if s != cluster.BreakerClosed {
				t.Errorf("%s breaker to %s finished %v, want closed", en.addr, peerID, s)
			}
		}
	}
	if st := wlog2.Stats(); st.Replayed == 0 && st.LiveSubs == 0 {
		t.Error("restarted WAL shows no replayed state")
	}
	t.Logf("soak: %d distinct events delivered, %d dupes, injector %+v", total, dupes, inj.Stats())
}
