package cluster

import (
	"bufio"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// forwardQueue bounds each peer's outbound forward queue. When it is full
// the oldest queued forward is dropped, mirroring the broker's subscriber
// overflow policy.
const forwardQueue = 256

// forwardItem is one queued forward: the events one publish sends this
// peer, which go out as one forwardb frame, with the enqueue timestamp, so
// the hop latency (enqueue to successful wire write) is measurable per
// peer. tc is the propagated trace context, set only when the publish is
// trace-sampled at this node — it rides the frame so the receiving peer
// continues the same cross-cluster trace.
type forwardItem struct {
	evs []*event.Event
	enq time.Time
	tc  *telemetry.TraceContext
}

// peer is one outbound federation link. The run loop owns the connection:
// it dials with jittered exponential backoff gated by a circuit breaker,
// identifies itself with a hello frame, reconciles remote subscription
// registrations, exchanges heartbeats, and drains the bounded forward
// queue. deliverb frames for our remote registrations come back on the
// same connection and are routed by a companion reader goroutine.
//
// Every read and write on the link carries a deadline: writes are bounded
// by Config.WriteTimeout and reads by Config.HeartbeatTimeout, so a
// stalled TCP peer surfaces as a timed-out operation and a breaker
// failure, never as a wedged goroutine.
type peer struct {
	n    *Node
	id   string // peer node ID == its wire address
	addr string

	queue chan forwardItem // bounded forwards; oldest dropped when full
	nudge chan struct{}    // capacity 1: registration reconcile requests
	done  chan struct{}

	// bk gates dialing and sheds forwards while the peer is considered
	// down. Success is recorded only when the peer proves liveness by
	// sending a frame back, so a wedged-but-accepting TCP peer still
	// accumulates failures.
	bk *breaker

	// hop records enqueue-to-wire latency for this link; the peer label
	// keeps every link a distinct series of one shared family.
	hop *telemetry.Histogram

	mu        sync.Mutex
	conn      net.Conn
	connected bool
	stopped   bool
}

func newPeer(n *Node, addr string) *peer {
	return &peer{
		n:     n,
		id:    addr,
		addr:  addr,
		queue: make(chan forwardItem, forwardQueue),
		nudge: make(chan struct{}, 1),
		done:  make(chan struct{}),
		bk:    newBreaker(n.cfg.BreakerThreshold, n.cfg.BreakerCooldown, nil),
		hop: telemetry.NewHistogram("thematicep_cluster_hop_seconds",
			"Forward hop latency per peer link (enqueue to wire write).",
			telemetry.LatencyBuckets(), telemetry.Label{Key: "peer", Value: addr}),
	}
}

// enqueue offers a forward to the queue and reports whether it was
// accepted. While the peer's breaker is not closed the forward is shed
// immediately (the peer is down; queueing would only delay the drop and
// hold memory), otherwise the oldest queued forward is dropped when the
// queue is full (the broker's overflow policy: publishers never block on a
// slow or dead peer). A forward is shed or dropped whole, accounted per
// event.
func (p *peer) enqueue(evs []*event.Event, tc *telemetry.TraceContext) bool {
	if p.bk.State() != BreakerClosed {
		return false
	}
	item := forwardItem{evs: evs, enq: p.n.broker.Clock().Now(), tc: tc}
	for {
		select {
		case p.queue <- item:
			return true
		default:
			select {
			case old := <-p.queue:
				p.n.ctrQueueDrops.Add(uint64(len(old.evs)))
			default:
			}
		}
	}
}

// requestReconcile asks the run loop to diff desired vs. sent remote
// registrations; coalesces while one is pending.
func (p *peer) requestReconcile() {
	select {
	case p.nudge <- struct{}{}:
	default:
	}
}

func (p *peer) stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	conn := p.conn
	p.mu.Unlock()
	close(p.done)
	if conn != nil {
		conn.Close()
	}
}

// fail records one link-level failure; if the streak opens the breaker,
// the peer becomes a membership suspect (direct evidence it is down) and
// the suspicion gossips out from the next heartbeat exchange.
func (p *peer) fail() {
	p.bk.Failure()
	if p.bk.State() != BreakerClosed {
		p.n.observeDown(p.id)
	}
}

// dropConn severs the live connection (fault injection / admin drain);
// the run loop reconnects with backoff.
func (p *peer) dropConn() bool {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		return false
	}
	conn.Close()
	return true
}

func (p *peer) setConn(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	p.connected = c != nil
	stopped := p.stopped
	p.mu.Unlock()
	if stopped && c != nil {
		c.Close()
	}
}

func (p *peer) isConnected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.connected
}

// writeFrame writes one frame with the link write deadline armed, so a
// stalled peer produces a timeout error instead of blocking the run loop.
func (p *peer) writeFrame(conn net.Conn, f *broker.Frame) error {
	conn.SetWriteDeadline(time.Now().Add(p.n.cfg.WriteTimeout))
	return broker.WriteFrame(conn, f)
}

// sleep waits d or until the peer stops; it reports whether to continue.
func (p *peer) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.done:
		return false
	case <-t.C:
		return true
	}
}

// sleepBackoff sleeps a full-jitter draw from (0, backoff] and doubles the
// ceiling toward ReconnectMax. Full jitter desynchronizes redials: when a
// restarted shard comes back, its peers reconnect spread over the backoff
// window instead of as a thundering herd of simultaneous dials.
func (p *peer) sleepBackoff(backoff *time.Duration) bool {
	d := time.Duration(rand.Int64N(int64(*backoff))) + 1
	if !p.sleep(d) {
		return false
	}
	if *backoff *= 2; *backoff > p.n.cfg.ReconnectMax {
		*backoff = p.n.cfg.ReconnectMax
	}
	return true
}

// breakerWait is how long the run loop dozes between Allow polls while the
// breaker is open: an eighth of the cooldown, clamped to [5ms, 250ms].
func (p *peer) breakerWait() time.Duration {
	d := p.n.cfg.BreakerCooldown / 8
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

func (p *peer) run() {
	backoff := p.n.cfg.ReconnectMin
	everConnected := false
	for {
		select {
		case <-p.done:
			return
		default:
		}

		if !p.bk.Allow() {
			if !p.sleep(p.breakerWait()) {
				return
			}
			continue
		}

		conn, err := p.n.cfg.Dial(p.addr)
		if err != nil {
			p.fail()
			if !p.sleepBackoff(&backoff) {
				return
			}
			continue
		}
		// Hello, then an immediate ping: the breaker closes only when the
		// peer answers (first frame received), so an accepting-but-dead
		// endpoint cannot reset the failure streak by merely accepting.
		// Both frames carry the membership view — the hello introduces us
		// (and everyone we know about) to the peer.
		if p.writeFrame(conn, &broker.Frame{Type: broker.FrameHello, NodeID: p.n.id,
			MetricsAddr: p.n.cfg.MetricsAddr, Members: p.n.gossip()}) != nil ||
			p.writeFrame(conn, &broker.Frame{Type: broker.FramePing, NodeID: p.n.id, Members: p.n.gossip()}) != nil {
			conn.Close()
			p.fail()
			if !p.sleepBackoff(&backoff) {
				return
			}
			continue
		}
		if everConnected {
			p.n.ctrReconnects.Add(1)
		}
		everConnected = true
		backoff = p.n.cfg.ReconnectMin
		p.setConn(conn)

		// Reader: deliveries for our remote registrations flow back on
		// this connection. readErr doubles as the link-down signal. Each
		// read is bounded by the heartbeat timeout — the peer's pongs (or
		// its traffic) must keep arriving or the link is declared dead.
		readErr := make(chan struct{})
		go func() {
			defer close(readErr)
			first := true
			// deliverb frames arrive in bursts
			frames := broker.NewFrameReader(bufio.NewReaderSize(conn, 64<<10))
			for {
				conn.SetReadDeadline(time.Now().Add(p.n.cfg.HeartbeatTimeout))
				f, err := frames.ReadFrame()
				if err != nil {
					return
				}
				if first {
					first = false
					p.bk.Success() // liveness proven: half-open probe passes
				}
				switch f.Type {
				case broker.FrameDeliveryBatch:
					p.n.handleRemoteDeliveries(f)
				case broker.FramePong:
					// Pongs answer our pings with the peer's membership
					// view: fold it in (this is where suspect rumors about
					// us arrive, triggering incarnation-bump refutation).
					p.n.mergeGossip(f.Members)
				}
			}
		}()

		// Registrations are connection state: re-sync from scratch.
		sent := make(map[string]bool)
		p.requestReconcile()

		hb := time.NewTicker(p.n.cfg.HeartbeatInterval)
		alive, linkFailed := true, false
		for alive {
			select {
			case <-p.done:
				alive = false
			case <-readErr:
				alive, linkFailed = false, true
			case <-hb.C:
				if p.writeFrame(conn, &broker.Frame{Type: broker.FramePing, NodeID: p.n.id, Members: p.n.gossip()}) != nil {
					alive, linkFailed = false, true
				}
			case <-p.nudge:
				if p.reconcile(conn, sent) != nil {
					alive, linkFailed = false, true
				}
			case item := <-p.queue:
				if p.writeFrame(conn, &broker.Frame{Type: broker.FrameForwardBatch,
					Events: item.evs, NodeID: p.n.id, Trace: item.tc}) != nil {
					alive, linkFailed = false, true
					break
				}
				// The hop is done once the frame is on the wire; attach it
				// to the sampled trace (if any) as a late span so
				// /debug/traces shows the federation leg. A forward
				// observes one hop per frame and attaches through its
				// first event — any member ID resolves to the batch trace.
				hop := p.n.broker.Clock().Now().Sub(item.enq)
				p.hop.ObserveDuration(hop)
				p.n.broker.Tracer().AppendSpan(item.evs[0].ID, "forward:"+p.id, item.enq, hop)
			}
		}
		hb.Stop()
		p.setConn(nil)
		conn.Close()
		<-readErr
		if linkFailed {
			select {
			case <-p.done:
				// Shutting down: the severed link is ours, not a peer fault.
			default:
				p.fail()
			}
		}

		select {
		case <-p.done:
			return
		default:
		}
	}
}

// reconcile diffs the registrations this shard should host for us against
// what this connection has already sent, subscribing and unsubscribing the
// difference. Keeping it as state sync (rather than queued control frames)
// means a dropped queue entry can never lose a registration.
func (p *peer) reconcile(conn net.Conn, sent map[string]bool) error {
	desired := p.n.desiredFor(p.id)
	for id, sub := range desired {
		if sent[id] {
			continue
		}
		if err := p.writeFrame(conn, &broker.Frame{Type: broker.FrameSubscribe, Subscription: sub, NodeID: p.n.id}); err != nil {
			return err
		}
		sent[id] = true
	}
	for id := range sent {
		if _, ok := desired[id]; ok {
			continue
		}
		if err := p.writeFrame(conn, &broker.Frame{Type: broker.FrameUnsubscribe, SubscriptionID: id, NodeID: p.n.id}); err != nil {
			return err
		}
		delete(sent, id)
	}
	return nil
}
