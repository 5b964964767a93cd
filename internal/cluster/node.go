package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// Config describes one broker's place in the federation.
type Config struct {
	// Self is this node's identity: the wire address its peers dial
	// (host:port). It doubles as the shard ID on the ring.
	Self string
	// Seeds are other members' wire addresses, the node's way into the
	// federation: it keeps a link to every seed for its whole life (even
	// through death rumors), and discovers the rest of the members from
	// them by gossip, so members need not list the same seeds. A node
	// needs at least one reachable seed to join an existing federation; a
	// node with none starts a federation of one and waits to be dialed.
	Seeds []string
	// SuspectTimeout is how long an unreachable member stays suspect
	// before it is declared dead and removed from the ring (default 10s).
	// Suspects keep their shards — only confirmed-dead members trigger a
	// rebalance — so the timeout trades failover latency against ring
	// stability under transient partitions.
	SuspectTimeout time.Duration
	// DedupWindow is how many recent event IDs a federated subscription
	// remembers for duplicate suppression once its window is open, and how
	// many IDs of events published into the local broker the node keeps
	// for the snapshot an opening window takes (default 1024).
	DedupWindow int
	// ReconnectMin/ReconnectMax bound the full-jitter exponential backoff
	// between peer dial attempts (defaults 50ms and 2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// WriteTimeout bounds every frame write on a peer link (default 2s).
	// A stalled TCP peer surfaces as a timed-out write and a breaker
	// failure, never as a wedged forward goroutine.
	WriteTimeout time.Duration
	// HeartbeatInterval is how often a link sends ping frames (default
	// 1s); HeartbeatTimeout is how long a link may stay silent before the
	// read deadline declares it dead (default 3x the interval, and always
	// at least one interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// BreakerThreshold is how many consecutive connection-level failures
	// (failed dial, failed hello, link death) open a peer's circuit
	// breaker (default 5). While open, forwards to that peer are shed
	// immediately (counted in Stats.ForwardsShed) instead of queueing,
	// and dials pause for BreakerCooldown (default 1s) before a single
	// half-open probe is attempted.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Dial overrides the peer dialer (tests, fault injection); default is
	// net.DialTimeout("tcp", addr, WriteTimeout).
	Dial func(addr string) (net.Conn, error)
	// MetricsAddr is this node's metrics/debug HTTP address (host:port),
	// advertised to peers in hello frames so every member can serve a
	// cluster scrape directory (/debug/peers) that themctl's -cluster
	// mode discovers the federation from. Empty means not advertised.
	MetricsAddr string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.DedupWindow <= 0 {
		out.DedupWindow = 1024
	}
	if out.ReconnectMin <= 0 {
		out.ReconnectMin = 50 * time.Millisecond
	}
	if out.ReconnectMax < out.ReconnectMin {
		out.ReconnectMax = 2 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 2 * time.Second
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = time.Second
	}
	if out.HeartbeatTimeout < out.HeartbeatInterval {
		out.HeartbeatTimeout = 3 * out.HeartbeatInterval
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = time.Second
	}
	if out.SuspectTimeout <= 0 {
		out.SuspectTimeout = 10 * time.Second
	}
	if out.Dial == nil {
		timeout := out.WriteTimeout
		out.Dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	return out
}

// Stats are the federation counters; all *_total values are cumulative.
type Stats struct {
	Forwarded        uint64 // events enqueued toward peer shards
	Received         uint64 // forwarded events accepted from peers
	Deduped          uint64 // duplicate deliveries suppressed by event ID
	PeerReconnects   uint64 // successful peer connections after a drop
	QueueDrops       uint64 // forwards dropped by the bounded peer queues
	ForwardsShed     uint64 // forwards shed: the owner's breaker was not closed, or it had no link yet
	BreakerTrips     uint64 // circuit-breaker transitions to open, summed over peers
	RemoteDeliveries uint64 // matches sent back to a peer's subscriber
	RemoteSubs       int    // remote registrations currently hosted here
	DedupWindows     int    // federated subscriptions whose event-ID window is open
	Peers            int    // configured peer links
	PeersConnected   int    // peer links currently established
	PeersOpen        int    // peer links whose breaker is currently open or half-open
}

// Node federates a local broker with its peers. It implements
// broker.Backend (so a broker.Server can route client traffic through it),
// broker.PeerHandler (inbound federation connections), and
// broker.SubscribeRedirector (pointing clients at the owning shard).
type Node struct {
	cfg    Config
	id     string
	broker *broker.Broker
	ms     *membership

	// ringPtr holds the current shard ring, rebuilt and swapped whole on
	// every membership change; readers load it lock-free.
	ringPtr atomic.Pointer[Ring]

	// pmu guards the live peer-link table: links are added when gossip
	// discovers a member and removed when a non-seed member dies.
	pmu   sync.RWMutex
	peers map[string]*peer

	// applyMu serializes applyMembership so ring swap and link reconcile
	// stay a single logical step.
	applyMu        sync.Mutex
	appliedVersion atomic.Uint64

	mu         sync.Mutex
	edges      map[string]*edgeSub
	started    bool
	closed     bool
	reaperDone chan struct{}

	nextSub   atomic.Uint64
	nextEvent atomic.Uint64

	ctrForwarded  atomic.Uint64
	ctrReceived   atomic.Uint64
	ctrDeduped    atomic.Uint64
	ctrReconnects atomic.Uint64
	ctrQueueDrops atomic.Uint64
	ctrShed       atomic.Uint64
	ctrRemoteDel  atomic.Uint64
	remoteSubs    atomic.Int64
	windows       atomic.Int64

	// pubMu guards pubIDs, a ring of the IDs of the last DedupWindow events
	// published into the local broker (pubSeq counts every ID written to
	// it), and snap, the set of the ring's IDs when pubSeq was snapSeq.
	pubMu   sync.Mutex
	pubIDs  []string
	pubSeq  uint64
	snap    map[string]struct{}
	snapSeq uint64
}

// New wraps a local broker in a federation node. The node does not dial
// anyone until Start.
func New(b *broker.Broker, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self identity required")
	}
	c := cfg.withDefaults()
	n := &Node{
		cfg:        c,
		id:         c.Self,
		broker:     b,
		ms:         newMembership(c.Self, c.MetricsAddr, c.Seeds),
		peers:      make(map[string]*peer),
		edges:      make(map[string]*edgeSub),
		reaperDone: make(chan struct{}),
		pubIDs:     make([]string, c.DedupWindow),
	}
	n.ringPtr.Store(NewRing(n.ms.RingMembers()))
	for _, m := range n.ms.Snapshot() {
		if m.Node != c.Self {
			n.peers[m.Node] = newPeer(n, m.Node)
		}
	}
	return n, nil
}

// Start opens the outbound peer links and the membership reaper. Links
// that cannot connect retry forever with exponential backoff, so peers may
// start in any order.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.closed {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.pmu.RLock()
	for _, p := range n.peers {
		go p.run()
	}
	n.pmu.RUnlock()
	go n.reaper()
}

// reaper ages suspect members toward dead and re-applies the membership
// view whenever its version has drifted past what the ring reflects (a
// catch-all for merge paths racing each other).
func (n *Node) reaper() {
	tick := n.cfg.SuspectTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.reaperDone:
			return
		case now := <-t.C:
			if n.ms.Reap(n.cfg.SuspectTimeout, now) || n.ms.Version() != n.appliedVersion.Load() {
				n.applyMembership()
			}
		}
	}
}

// Ring exposes the node's current view of the shard ring.
func (n *Node) Ring() *Ring { return n.ringPtr.Load() }

// Members returns the node's membership view (self first).
func (n *Node) Members() []Member { return n.ms.Snapshot() }

// gossip renders the membership view for piggybacking on link frames.
func (n *Node) gossip() []broker.MemberInfo { return n.ms.Gossip() }

// mergeGossip folds a received membership payload into the view and
// rebuilds the ring if anything changed.
func (n *Node) mergeGossip(infos []broker.MemberInfo) {
	if len(infos) == 0 {
		return
	}
	if n.ms.Merge(infos, time.Now()) {
		n.applyMembership()
	}
}

// observeDown records direct evidence (an opened circuit breaker) that a
// member is unreachable, moving it alive -> suspect.
func (n *Node) observeDown(id string) {
	if n.ms.ObserveDown(id, time.Now()) {
		n.applyMembership()
	}
}

// applyMembership makes the node's runtime state match the membership
// view: rebuild the ring from the live members, open links to newly
// discovered members, drop links to dead non-seed members, recompute every
// federated subscription's owning shards, and nudge all links so the
// desired-vs-sent reconcile loops hand registrations off to their new
// owners. Idempotent; safe to call from any goroutine.
func (n *Node) applyMembership() {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	version := n.ms.Version()
	ring := NewRing(n.ms.RingMembers())
	n.ringPtr.Store(ring)

	n.mu.Lock()
	started, closed := n.started, n.closed
	n.mu.Unlock()
	if closed {
		return
	}

	// Reconcile links: every non-dead member keeps (or gains) a link;
	// seeds additionally keep theirs while dead so a restarted seed is
	// redialed without waiting for it to find us.
	var opened []*peer
	var dropped []*peer
	n.pmu.Lock()
	for _, m := range n.ms.Snapshot() {
		if m.Node == n.id {
			continue
		}
		if m.State == MemberDead && !m.Seed {
			if p := n.peers[m.Node]; p != nil {
				dropped = append(dropped, p)
				delete(n.peers, m.Node)
			}
			continue
		}
		if n.peers[m.Node] == nil {
			p := newPeer(n, m.Node)
			n.peers[m.Node] = p
			opened = append(opened, p)
		}
	}
	n.pmu.Unlock()
	for _, p := range dropped {
		p.stop()
	}
	if started {
		for _, p := range opened {
			go p.run()
		}
	}

	// Re-own every federated subscription under the new ring; the nudged
	// reconcile loops subscribe on new owners and unsubscribe from old. A
	// subscription's first remote owner opens its window, before the nudge.
	n.mu.Lock()
	var opening []*edgeSub
	for _, e := range n.edges {
		var owners []string
		for _, o := range ring.Owners(e.sub.Theme) {
			if o != n.id {
				owners = append(owners, o)
			}
		}
		e.owners = owners
		if len(owners) > 0 && e.win.Load() == nil {
			opening = append(opening, e)
		}
	}
	n.openWindows(opening...)
	n.mu.Unlock()
	n.appliedVersion.Store(version)
	n.nudgeAll()
}

// nudgeAll asks every peer link to reconcile remote registrations.
func (n *Node) nudgeAll() {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	for _, p := range n.peers {
		p.requestReconcile()
	}
}

// getPeer returns the live link to a member, if any.
func (n *Node) getPeer(id string) *peer {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	return n.peers[id]
}

// peersSnapshot copies the live link table.
func (n *Node) peersSnapshot() map[string]*peer {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	out := make(map[string]*peer, len(n.peers))
	for id, p := range n.peers {
		out[id] = p
	}
	return out
}

// ID returns the node's shard identity (its advertised address).
func (n *Node) ID() string { return n.id }

// Close tears down the peer links and every federated subscription. The
// underlying broker is left open (the caller owns it).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	started := n.started
	edges := make([]*edgeSub, 0, len(n.edges))
	for _, e := range n.edges {
		edges = append(edges, e)
	}
	n.mu.Unlock()

	if started {
		close(n.reaperDone)
	}
	for _, p := range n.peersSnapshot() {
		p.stop()
	}
	for _, e := range edges {
		e.Close()
	}
}

// Publish accepts an event locally and forwards it to every peer whose
// shard overlaps its theme set: it is a batch of one.
func (n *Node) Publish(e *event.Event) error {
	return n.PublishBatch([]*event.Event{e})
}

// maxForwardBatch caps one forwardb frame's event count: a forward larger
// than this is split, bounding frame size and the work one queue item
// represents.
const maxForwardBatch = 256

// PublishBatch accepts a batch locally through the broker's batched
// pipeline, then forwards the admitted events per owning peer shard: one
// forwardb frame per destination (split at maxForwardBatch). Events without
// an ID are assigned one so downstream de-duplication can identify
// re-deliveries. Admission is all-or-nothing, matching broker.PublishBatch.
func (n *Node) PublishBatch(events []*event.Event) error {
	if len(events) == 0 {
		return nil
	}
	// The node's own copy: queued forwards keep sharing it after the
	// caller has reused its slice.
	evs := append([]*event.Event(nil), events...)
	for i, e := range evs {
		if e != nil && e.ID == "" {
			cp := *e
			cp.ID = fmt.Sprintf("%s/e%d", n.id, n.nextEvent.Add(1))
			evs[i] = &cp
		}
	}
	n.record(evs)
	if err := n.broker.PublishBatch(evs); err != nil {
		return err
	}
	n.forward(evs)
	return nil
}

// record writes the IDs of events about to be published into the local
// broker to the publish ring. It runs before the publish, so an event
// delivered locally through a gate with no window yet is in the snapshot
// that the window takes when it opens.
func (n *Node) record(evs []*event.Event) {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	for _, e := range evs {
		if e != nil && e.ID != "" {
			n.pubIDs[n.pubSeq%uint64(len(n.pubIDs))] = e.ID
			n.pubSeq++
		}
	}
}

// publishedSnapshot returns the set of IDs in the publish ring. It is
// shared with earlier callers while no ID has been recorded since.
func (n *Node) publishedSnapshot() map[string]struct{} {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	if n.snap == nil || n.snapSeq != n.pubSeq {
		n.snap = make(map[string]struct{}, min(n.pubSeq, uint64(len(n.pubIDs))))
		for _, id := range n.pubIDs {
			if id != "" {
				n.snap[id] = struct{}{}
			}
		}
		n.snapSeq = n.pubSeq
	}
	return n.snap
}

// openWindows opens the dedup window of each edge in es, none of which has
// one yet, then attaches one snapshot of the publish ring to all of them.
// The caller holds n.mu, and nudges the edges' owners only afterwards, so
// no remote registration exists before its window and snapshot do.
//
// Installing every window before taking the snapshot closes the one race
// a late window opens: a local delivery that passed a gate with no window
// was recorded in the ring before it (record), so before the snapshot, and
// handleRemoteDeliveries drops its remote copy by the snapshot.
func (n *Node) openWindows(es ...*edgeSub) {
	if len(es) == 0 {
		return
	}
	for _, e := range es {
		e.win.Store(&event.IDWindow{Size: n.cfg.DedupWindow})
	}
	snap := n.publishedSnapshot()
	for _, e := range es {
		e.snap = snap
	}
	n.windows.Add(int64(len(es)))
}

// fwdGroup is the events of one publish bound for one remote owner. They
// are evs[lo:hi] of the publish while contiguous there — always so for a
// batch of one — and a slice of their own (own) after the first gap.
type fwdGroup struct {
	owner  string
	p      *peer // nil while the owner has no link
	lo, hi int
	own    []*event.Event
}

func (g *fwdGroup) add(evs []*event.Event, i int) {
	switch {
	case g.own != nil:
		g.own = append(g.own, evs[i])
	case g.hi == i:
		g.hi++
	default:
		g.own = append(slices.Clone(evs[g.lo:g.hi]), evs[i])
	}
}

// forward queues the admitted events toward their remote owners. Every
// (event, remote owner) pair is counted once: forwarded, or shed when the
// owner's breaker is not closed or its link is not open yet (the ring is
// swapped before the links are reconciled).
func (n *Node) forward(evs []*event.Event) {
	ring := n.Ring()
	var gbuf [4]fwdGroup
	var obuf [8]string
	groups := gbuf[:0]
	for i, ev := range evs {
		for _, owner := range ring.ownersInto(obuf[:], ev.Theme) {
			if owner == n.id {
				continue
			}
			j := slices.IndexFunc(groups, func(g fwdGroup) bool { return g.owner == owner })
			if j < 0 {
				groups = append(groups, fwdGroup{owner: owner, p: n.getPeer(owner), lo: i, hi: i})
				j = len(groups) - 1
			}
			groups[j].add(evs, i)
		}
	}
	for _, g := range groups {
		run := g.own
		if run == nil {
			run = evs[g.lo:g.hi]
		}
		for lo := 0; lo < len(run); lo += maxForwardBatch {
			sub := run[lo:min(lo+maxForwardBatch, len(run))]
			if g.p != nil && g.p.enqueue(sub, n.traceContext(sub[0].ID)) {
				n.ctrForwarded.Add(uint64(len(sub)))
			} else {
				n.ctrShed.Add(uint64(len(sub)))
			}
		}
	}
}

// traceContext is the context of the sampled trace holding eventID, or nil.
// Batch traces index every member event, so a sub-batch's first event
// resolves its publish's context; the receiving peer adopts it keyed by the
// same convention, and continues the sender's span tree.
func (n *Node) traceContext(eventID string) *telemetry.TraceContext {
	if c, ok := n.broker.Tracer().ContextFor(eventID); ok {
		tc := c // allocated only for a sampled publish
		return &tc
	}
	return nil
}

// SubscribeHandle registers a subscription locally and on every remote
// shard owning one of its themes; remote matches flow back over the peer
// links and are de-duplicated against local matches by event ID once the
// subscription has a second delivery path. It implements broker.Backend.
func (n *Node) SubscribeHandle(sub *event.Subscription, opts ...broker.SubscribeOption) (broker.SubHandle, error) {
	if sub == nil {
		return nil, fmt.Errorf("cluster: nil subscription")
	}
	cp := *sub
	if cp.ID == "" {
		cp.ID = fmt.Sprintf("%s/s%d", n.id, n.nextSub.Add(1))
	}
	// The event-ID window stands in front of the local registration's queue,
	// where local matches and remote ones (handleRemoteDeliveries) meet: the
	// broker calls the gate under the queue lock, so once the window is
	// open, whichever copy of an event arrives second is dropped in queue
	// order. Until then there is one delivery path and nothing to drop.
	e := &edgeSub{node: n, sub: &cp}
	fresh := func(ev *event.Event) bool {
		w := e.win.Load()
		if w == nil || ev.ID == "" || w.Fresh(ev.ID) {
			return true
		}
		n.ctrDeduped.Add(1)
		return false
	}
	local, err := n.broker.Subscribe(&cp, append(opts, broker.Gate(fresh))...)
	if err != nil {
		return nil, err
	}
	e.Subscriber = local

	// Owners are computed under n.mu against the current ring: a
	// subscribe racing a membership change either sees the new ring here,
	// or is already in n.edges when applyMembership re-owns every edge —
	// either way the registration lands on the post-change owners.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		local.Close()
		return nil, broker.ErrClosed
	}
	var owners []string
	for _, o := range n.Ring().Owners(cp.Theme) {
		if o != n.id {
			owners = append(owners, o)
		}
	}
	e.owners = owners
	n.edges[cp.ID] = e
	if len(owners) > 0 {
		n.openWindows(e)
	}
	n.mu.Unlock()

	n.nudgePeers(owners)
	return e, nil
}

// Redirect implements broker.SubscribeRedirector: a themed subscription
// arriving at a broker that owns none of its themes is pointed at the
// primary owning shard, saving the extra federation hop.
func (n *Node) Redirect(sub *event.Subscription) string {
	if sub == nil || len(sub.Theme) == 0 {
		return ""
	}
	owners := n.Ring().Owners(sub.Theme)
	for _, o := range owners {
		if o == n.id {
			return ""
		}
	}
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// DropPeer severs the current connection to a peer (if any), forcing a
// reconnect with backoff. It returns whether a live link was dropped.
// Exposed for fault injection in tests and operational drills.
func (n *Node) DropPeer(id string) bool {
	p := n.getPeer(id)
	if p == nil {
		return false
	}
	return p.dropConn()
}

// nudgePeers asks the named peer links to reconcile remote registrations.
func (n *Node) nudgePeers(ids []string) {
	for _, id := range ids {
		if p := n.getPeer(id); p != nil {
			p.requestReconcile()
		}
	}
}

// desiredFor returns the subscriptions that should be registered on a
// given peer shard, keyed by subscription ID.
func (n *Node) desiredFor(peerID string) map[string]*event.Subscription {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]*event.Subscription)
	for id, e := range n.edges {
		for _, o := range e.owners {
			if o == peerID {
				out[id] = e.sub
				break
			}
		}
	}
	return out
}

// handleRemoteDeliveries routes a deliverb frame from a peer shard to the
// local federated subscriptions it names. A remote copy opens a window that
// is not open yet, and one of an event published here before the window
// opened is dropped: it duplicates a local delivery, or is a copy of an
// event published before the subscription existed (DESIGN §8).
func (n *Node) handleRemoteDeliveries(f *broker.Frame) {
	if f.Event == nil {
		return
	}
	for _, t := range f.Targets {
		n.mu.Lock()
		e := n.edges[t.SubscriptionID]
		var before bool
		if e != nil {
			if e.win.Load() == nil {
				n.openWindows(e)
			}
			_, before = e.snap[f.Event.ID]
		}
		n.mu.Unlock()
		if before {
			n.ctrDeduped.Add(1)
		} else if e != nil {
			e.Offer(broker.Delivery{
				Event:          f.Event,
				SubscriptionID: t.SubscriptionID,
				Score:          t.Score,
				Replayed:       t.Replay,
				At:             f.At,
			})
		}
	}
}

// ServePeer handles one inbound federation connection (a peer that dialed
// us and sent hello). It accepts forwarded events into the local broker
// and hosts the peer's remote subscription registrations, streaming their
// matches back on the same connection. It implements broker.PeerHandler.
func (n *Node) ServePeer(conn net.Conn, hello *broker.Frame) {
	if hello != nil && hello.NodeID != "" {
		// The hello doubles as a gossip exchange: merge the dialer's view,
		// plus a synthesized alive row for the dialer itself so nodes that
		// predate the membership payload (or raw test frames) still join
		// the view with their advertised metrics address.
		infos := append(append([]broker.MemberInfo(nil), hello.Members...),
			broker.MemberInfo{Node: hello.NodeID, Metrics: hello.MetricsAddr})
		n.mergeGossip(infos)
	}
	var writeMu sync.Mutex
	write := func(f *broker.Frame) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		// Bounded write: a peer that stops reading cannot wedge the
		// delivery forwarders sharing this connection.
		conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
		return broker.WriteFrame(conn, f)
	}

	// Every hosted remote copy streams its matches back through one writer:
	// deliverb frames naming the origin subscription IDs.
	deliveries := n.broker.NewDeliveryWriter(func(frames []byte, sent int) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
		_, err := conn.Write(frames)
		if err != nil {
			// A frame may be half on the wire: the link is over. Closing it
			// frees the read loop below, and the peer redials.
			conn.Close()
			return err
		}
		n.ctrRemoteDel.Add(uint64(sent))
		return nil
	})

	// origin subscription ID -> local registration. Local IDs are assigned
	// by the broker so a re-registration racing a dead connection's
	// cleanup cannot collide; the home node's dedup absorbs any overlap.
	subs := make(map[string]*broker.Subscriber)
	drop := func(origin string) {
		if s, ok := subs[origin]; ok {
			delete(subs, origin)
			s.Close()
			n.remoteSubs.Add(-1)
		}
	}
	defer func() {
		for origin := range subs {
			drop(origin)
		}
		deliveries.Close()
	}()

	fr := broker.NewFrameReader(conn)
	for {
		// The peer pings every HeartbeatInterval; a link silent past the
		// heartbeat timeout is dead (stall or partition), and the deadline
		// frees this goroutine instead of leaking it.
		conn.SetReadDeadline(time.Now().Add(n.cfg.HeartbeatTimeout))
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		switch f.Type {
		case broker.FramePing:
			// Pings carry the sender's membership view; the pong answers
			// with ours. This inbound/outbound pair is the periodic
			// SWIM-style state exchange — rumors (suspect/dead claims and
			// their refutations) spread along every live link at the
			// heartbeat cadence.
			n.mergeGossip(f.Members)
			write(&broker.Frame{Type: broker.FramePong, NodeID: n.id, Members: n.gossip()})

		case broker.FrameForwardBatch:
			if len(f.Events) == 0 {
				continue
			}
			n.ctrReceived.Add(uint64(len(f.Events)))
			n.record(f.Events)
			// A propagated trace context forces sampling of this publish
			// under the originating trace ID, so the remote fragment joins
			// the sender's span tree when themctl trace merges the ring.
			// Adoption keys on the first member, matching the sender's
			// ContextFor convention and the broker's StartAt key.
			n.broker.Tracer().Adopt(f.Events[0].ID, f.Trace)
			// Publish locally only: forwarded events are never
			// re-forwarded, so federation traffic is a single hop.
			n.broker.PublishBatch(f.Events)

		case broker.FrameSubscribe:
			if f.Subscription == nil || f.Subscription.ID == "" {
				continue
			}
			origin := f.Subscription.ID
			drop(origin)
			cp := *f.Subscription
			cp.ID = "" // let the broker pick a conn-local ID
			// Ephemeral: remote copies are connection state, rebuilt by the
			// origin's reconcile loop — never journaled here.
			s, err := n.broker.Subscribe(&cp, broker.Ephemeral())
			if err != nil {
				continue
			}
			subs[origin] = s
			n.remoteSubs.Add(1)
			deliveries.Attach(s, origin)

		case broker.FrameUnsubscribe:
			drop(f.SubscriptionID)
		}
	}
}

// Stats returns a snapshot of the federation counters.
func (n *Node) Stats() Stats {
	connected, open := 0, 0
	var trips uint64
	peers := n.peersSnapshot()
	for _, p := range peers {
		if p.isConnected() {
			connected++
		}
		if p.bk.State() != BreakerClosed {
			open++
		}
		trips += p.bk.Trips()
	}
	return Stats{
		Forwarded:        n.ctrForwarded.Load(),
		Received:         n.ctrReceived.Load(),
		Deduped:          n.ctrDeduped.Load(),
		PeerReconnects:   n.ctrReconnects.Load(),
		QueueDrops:       n.ctrQueueDrops.Load(),
		ForwardsShed:     n.ctrShed.Load(),
		BreakerTrips:     trips,
		RemoteDeliveries: n.ctrRemoteDel.Load(),
		RemoteSubs:       int(n.remoteSubs.Load()),
		DedupWindows:     int(n.windows.Load()),
		Peers:            len(peers),
		PeersConnected:   connected,
		PeersOpen:        open,
	}
}

// PeerStates returns every peer link's circuit-breaker position, keyed by
// peer ID. Used by tests and operational drills to assert recovery (all
// breakers back to closed after a partition heals).
func (n *Node) PeerStates() map[string]BreakerState {
	peers := n.peersSnapshot()
	out := make(map[string]BreakerState, len(peers))
	for id, p := range peers {
		out[id] = p.bk.State()
	}
	return out
}

// PeerInfo is one row of the cluster scrape directory: a member's shard
// identity, its advertised metrics/debug HTTP address, and its live
// membership state ("alive", "suspect", or "dead").
type PeerInfo struct {
	Node        string `json:"node"`
	Metrics     string `json:"metrics,omitempty"`
	Self        bool   `json:"self,omitempty"`
	State       string `json:"state,omitempty"`
	Incarnation uint64 `json:"inc,omitempty"`
}

// PeerDirectory lists this node (first) and every member of the gossiped
// membership view, sorted by ID — the live view behind /debug/peers, so
// the directory tracks joins, suspicion, and deaths as they propagate.
func (n *Node) PeerDirectory() []PeerInfo {
	members := n.ms.Snapshot()
	out := make([]PeerInfo, 0, len(members))
	for _, m := range members {
		out = append(out, PeerInfo{
			Node:        m.Node,
			Metrics:     m.Metrics,
			Self:        m.Node == n.id,
			State:       m.State.String(),
			Incarnation: m.Incarnation,
		})
	}
	return out
}

// PeersHandler serves the peer directory as JSON (the /debug/peers
// endpoint themctl's -cluster mode discovers the federation from).
func (n *Node) PeersHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.PeerDirectory())
	})
}

// WriteMetrics implements broker.Collector, appending the cluster counter
// families, per-peer forward-queue depth gauges, and per-peer hop latency
// histograms to the broker's Prometheus endpoint. Route the writer through
// a telemetry.Expo (broker.MetricsHandler does) so the per-peer series of
// one family share a single HELP/TYPE header.
func (n *Node) WriteMetrics(w io.Writer) {
	st := n.Stats()
	telemetry.WriteCounter(w, "thematicep_cluster_forwarded_total", "Events forwarded toward peer shards.", st.Forwarded)
	telemetry.WriteCounter(w, "thematicep_cluster_received_total", "Forwarded events accepted from peers.", st.Received)
	telemetry.WriteCounter(w, "thematicep_cluster_deduped_total", "Duplicate deliveries suppressed by event ID.", st.Deduped)
	telemetry.WriteCounter(w, "thematicep_cluster_peer_reconnects_total", "Peer links re-established after a drop.", st.PeerReconnects)
	telemetry.WriteCounter(w, "thematicep_cluster_peer_queue_drops_total", "Forwards dropped by the bounded peer queues.", st.QueueDrops)
	telemetry.WriteCounter(w, "thematicep_cluster_forwards_shed_total", "Forwards shed because the owner's circuit breaker was not closed or it had no peer link yet.", st.ForwardsShed)
	telemetry.WriteCounter(w, "thematicep_cluster_breaker_trips_total", "Peer circuit-breaker transitions to open.", st.BreakerTrips)
	telemetry.WriteCounter(w, "thematicep_cluster_remote_deliveries_total", "Matches streamed back to peer subscribers.", st.RemoteDeliveries)
	telemetry.WriteGauge(w, "thematicep_cluster_remote_subscriptions", "Remote registrations currently hosted.", st.RemoteSubs)
	telemetry.WriteGauge(w, "thematicep_cluster_dedup_windows", "Federated subscriptions whose event-ID dedup window is open.", st.DedupWindows)
	telemetry.WriteGauge(w, "thematicep_cluster_peers", "Live peer links.", st.Peers)
	telemetry.WriteGauge(w, "thematicep_cluster_peers_connected", "Peer links currently established.", st.PeersConnected)

	// Membership view: member counts by state plus the cumulative
	// transition counters, so dashboards see joins, suspicion, and deaths
	// as first-class series.
	counts := map[MemberState]int{}
	for _, m := range n.ms.Snapshot() {
		counts[m.State]++
	}
	for _, s := range []MemberState{MemberAlive, MemberSuspect, MemberDead} {
		telemetry.WriteGaugeVec(w, "thematicep_cluster_members",
			"Federation members known to this node, by membership state.",
			[]telemetry.Label{{Key: "state", Value: s.String()}}, float64(counts[s]))
	}
	joins, leaves, suspects := n.ms.Counters()
	telemetry.WriteCounter(w, "thematicep_cluster_member_join_total", "Members discovered or revived from dead.", joins)
	telemetry.WriteCounter(w, "thematicep_cluster_member_leave_total", "Members declared dead.", leaves)
	telemetry.WriteCounter(w, "thematicep_cluster_member_suspect_total", "Member transitions to suspect.", suspects)

	peers := n.peersSnapshot()
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		telemetry.WriteGaugeVec(w, "thematicep_cluster_forward_queue_depth",
			"Forwards waiting in a peer link's bounded queue.",
			[]telemetry.Label{{Key: "peer", Value: id}}, float64(len(peers[id].queue)))
	}
	for _, id := range ids {
		telemetry.WriteGaugeVec(w, "thematicep_cluster_breaker_state",
			"Peer circuit-breaker position (0 closed, 1 half-open, 2 open).",
			[]telemetry.Label{{Key: "peer", Value: id}}, float64(peers[id].bk.State()))
	}
	for _, id := range ids {
		peers[id].hop.WriteMetrics(w)
	}
}

// edgeSub is one federated subscription: its local broker registration —
// whose ID, queue and notify hook are the subscription's own — plus the
// remote shards holding a copy. Remote matches are offered to the same
// queue, behind the event-ID gate installed at subscribe time. It satisfies
// broker.SubHandle.
type edgeSub struct {
	*broker.Subscriber
	node   *Node
	sub    *event.Subscription
	owners []string // remote shards this subscription is registered on

	// win is the event-ID window the gate consults, nil until the
	// subscription first has a remote owner or receives a remote copy, and
	// then kept for life; snap (guarded by node.mu) is the publish-ring
	// snapshot taken when it opened. See openWindows.
	win  atomic.Pointer[event.IDWindow]
	snap map[string]struct{}
}

// Close cancels the subscription locally and on every remote shard.
func (e *edgeSub) Close() {
	n := e.node
	n.mu.Lock()
	live := n.edges[e.ID()] == e
	if live {
		delete(n.edges, e.ID())
		if e.win.Load() != nil {
			n.windows.Add(-1)
		}
	}
	n.mu.Unlock()
	if !live {
		return
	}
	e.Subscriber.Close()
	// Reconcile everywhere: the current owners unsubscribe the remote
	// copy, and any former owner still holding a pre-rebalance copy in its
	// link's sent set cleans up on the same nudge.
	n.nudgeAll()
}
