package broker

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"thematicep/internal/event"
)

// DefaultHandshakeTimeout bounds how long a freshly accepted connection
// may stay silent before sending its first frame. A peer (or port
// scanner) that connects but never identifies itself would otherwise hold
// a serving goroutine forever.
const DefaultHandshakeTimeout = 10 * time.Second

// SubHandle is one active subscription as the transport layer sees it:
// *Subscriber satisfies it, and so does a federated handle from
// internal/cluster.
type SubHandle interface {
	ID() string
	// Take moves every queued delivery onto dst in queue order and reports
	// whether the subscription is still open.
	Take(dst []Delivery) ([]Delivery, bool)
	// SetNotify installs a hook called after deliveries have been enqueued
	// and after the subscription closes, outside the queue lock, and at
	// once if the queue is already non-empty or closed.
	SetNotify(func())
	Close()
}

// Backend is the pub/sub engine a Server fronts. The local Broker is the
// default; a cluster node substitutes itself to add theme-routed
// federation without the server knowing.
type Backend interface {
	// PublishBatch receives a publishb frame as one batch with
	// all-or-nothing admission, and a publish frame as a batch of one.
	PublishBatch(events []*event.Event) error
	SubscribeHandle(sub *event.Subscription, opts ...SubscribeOption) (SubHandle, error)
}

// DefaultMaxBatch caps how many events one publishb frame may carry unless
// overridden with SetMaxBatch. The cap bounds the per-frame work a single
// client can force on the matching pipeline; MaxFrameSize already bounds
// the bytes.
const DefaultMaxBatch = 4096

// SubscribeHandle implements Backend over the local broker.
func (b *Broker) SubscribeHandle(sub *event.Subscription, opts ...SubscribeOption) (SubHandle, error) {
	s, err := b.Subscribe(sub, opts...)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// PeerHandler takes over connections that identify themselves as federation
// peers with a hello frame. Implemented by internal/cluster; when nil,
// hello frames are answered with an error.
type PeerHandler interface {
	// ServePeer owns the connection until it returns; the server closes
	// the conn afterwards. Reads on conn continue after the hello frame,
	// including bytes the server had already buffered behind it.
	ServePeer(conn net.Conn, hello *Frame)
}

// SubscribeRedirector lets a backend redirect a subscription to the broker
// owning its theme shard. A non-empty address is sent to the client as a
// redirect frame instead of registering locally.
type SubscribeRedirector interface {
	Redirect(sub *event.Subscription) string
}

// QueryHandle is one active continuous query as the transport layer sees
// it: a named detection queue read the way a SubHandle's deliveries are,
// closed by the client's unsubscribe or by connection teardown.
type QueryHandle interface {
	Name() string
	// Take moves every queued detection onto dst in queue order and reports
	// whether the query is still open.
	Take(dst []QueryDetection) ([]QueryDetection, bool)
	// SetNotify installs a hook called after detections have been queued
	// and after the query closes, outside the queue lock, and at once if
	// the queue is already non-empty or closed.
	SetNotify(func())
	Close()
}

// QueryRegistrar owns continuous queries (implemented by query.Engine).
// When nil, query frames are answered with an error.
type QueryRegistrar interface {
	RegisterQuery(spec *QuerySpec) (QueryHandle, error)
}

// Server exposes a Backend over TCP using the wire protocol. One server
// serves many client connections; each connection may hold many
// subscriptions.
type Server struct {
	broker  *Broker
	backend Backend

	mu               sync.Mutex
	listener         net.Listener
	conns            map[net.Conn]struct{}
	peerHandler      PeerHandler
	queries          QueryRegistrar
	recovered        *Recovered
	handshakeTimeout time.Duration
	maxBatch         int
	wg               sync.WaitGroup
	closed           bool
}

// NewServer wraps a broker.
func NewServer(b *Broker) *Server {
	return &Server{
		broker:           b,
		backend:          b,
		conns:            make(map[net.Conn]struct{}),
		handshakeTimeout: DefaultHandshakeTimeout,
		maxBatch:         DefaultMaxBatch,
	}
}

// SetMaxBatch overrides the largest batch one publishb frame may carry
// (DefaultMaxBatch). Oversized batches are rejected whole with an error
// frame. Zero or negative disables the cap. Call before traffic arrives.
func (s *Server) SetMaxBatch(n int) {
	s.mu.Lock()
	s.maxBatch = n
	s.mu.Unlock()
}

func (s *Server) getMaxBatch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBatch
}

// SetHandshakeTimeout overrides how long a new connection may wait before
// its first frame (DefaultHandshakeTimeout). Zero or negative disables the
// bound. Call before traffic arrives.
func (s *Server) SetHandshakeTimeout(d time.Duration) {
	s.mu.Lock()
	s.handshakeTimeout = d
	s.mu.Unlock()
}

func (s *Server) getHandshakeTimeout() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handshakeTimeout
}

// SetBackend replaces the engine requests are routed to (for example a
// cluster node wrapping the broker). Call before traffic arrives.
func (s *Server) SetBackend(be Backend) {
	s.mu.Lock()
	s.backend = be
	s.mu.Unlock()
}

// SetPeerHandler installs the handler for inbound federation connections.
func (s *Server) SetPeerHandler(h PeerHandler) {
	s.mu.Lock()
	s.peerHandler = h
	s.mu.Unlock()
}

// SetQueryRegistrar installs the continuous-query engine behind query
// frames. Call before traffic arrives.
func (s *Server) SetQueryRegistrar(qr QueryRegistrar) {
	s.mu.Lock()
	s.queries = qr
	s.mu.Unlock()
}

func (s *Server) getQueryRegistrar() QueryRegistrar {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// SetRecovered installs the WAL-recovered registration registry: subscribe
// and query frames naming a parked registration adopt it instead of
// re-registering. Call before traffic arrives.
func (s *Server) SetRecovered(r *Recovered) {
	s.mu.Lock()
	s.recovered = r
	s.mu.Unlock()
}

func (s *Server) getRecovered() *Recovered {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

func (s *Server) getBackend() Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend
}

func (s *Server) getPeerHandler() PeerHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerHandler
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7070") and
// returns the bound address. Serving happens on background goroutines until
// Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker server: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState tracks one client connection's subscriptions and queries and
// serializes writes (the delivery writer and request acknowledgements share
// the socket).
type connState struct {
	conn    net.Conn
	writeMu sync.Mutex
	subs    map[string]SubHandle
	queries map[string]QueryHandle
	// deliveries streams every subscription and query of the connection;
	// started by the first of them, so publisher connections never run one.
	deliveries *DeliveryWriter
}

func (cs *connState) write(f *Frame) error {
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	return WriteFrame(cs.conn, f)
}

// writer returns the connection's delivery writer, starting it on first use.
// The caller attaches a stream only once its acknowledgement is written: the
// writer sends nothing of a stream before Attach, so ok precedes its first
// delivery or detection on the wire.
func (cs *connState) writer(b *Broker) *DeliveryWriter {
	if cs.deliveries == nil {
		cs.deliveries = b.NewDeliveryWriter(func(frames []byte, _ int) error {
			cs.writeMu.Lock()
			defer cs.writeMu.Unlock()
			_, err := cs.conn.Write(frames)
			if err != nil {
				// The connection can no longer carry deliveries: end it, so
				// the client sees a drop rather than a silent stream.
				cs.conn.Close()
			}
			return err
		})
	}
	return cs.deliveries
}

// bufferedConn is a conn whose reads go through the reader that has been
// framing it, so a new owner continues exactly behind the last frame read.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := &connState{
		conn:    conn,
		subs:    make(map[string]SubHandle),
		queries: make(map[string]QueryHandle),
	}
	defer func() {
		for _, sub := range cs.subs {
			sub.Close()
		}
		for _, q := range cs.queries {
			q.Close()
		}
		if cs.deliveries != nil {
			cs.deliveries.Close()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Handshake bound: the first frame must arrive within the handshake
	// timeout or the connection is dropped — a peer that connects but
	// never identifies cannot hold this goroutine forever. Once the
	// connection has proven itself the deadline is cleared: an idle
	// subscriber waiting for deliveries is legitimate. Client's first
	// frame is a ping sent by Dial, so a client is never silent.
	if d := s.getHandshakeTimeout(); d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	first := true
	br := bufio.NewReader(conn) // one read(2) per small frame instead of two
	frames := NewFrameReader(br)
	for {
		f, err := frames.ReadFrame()
		if err != nil {
			return
		}
		if first {
			first = false
			conn.SetReadDeadline(time.Time{})
		}
		switch f.Type {
		case FrameHello:
			// The connection is a federation peer, not a client; hand it
			// to the cluster layer for its lifetime.
			if h := s.getPeerHandler(); h != nil {
				h.ServePeer(bufferedConn{conn, br}, f)
				return
			}
			cs.write(&Frame{Type: FrameError, Error: "not clustered"})

		case FramePing:
			// Client's dial-time handshake: it proves the connection, so an
			// idle subscriber is not dropped by the deadline. Never answered
			// — the client has no request waiting on it.

		case FramePublish:
			if err := s.getBackend().PublishBatch([]*event.Event{f.Event}); err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.write(&Frame{Type: FrameOK})

		case FramePublishBatch:
			if mb := s.getMaxBatch(); mb > 0 && len(f.Events) > mb {
				cs.write(&Frame{Type: FrameError,
					Error: fmt.Sprintf("batch of %d events exceeds server cap %d", len(f.Events), mb)})
				continue
			}
			if err := s.getBackend().PublishBatch(f.Events); err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.write(&Frame{Type: FrameOK, Count: len(f.Events)})

		case FrameSubscribe:
			// A reconnecting client that survived our restart adopts its
			// WAL-recovered registration by ID — before the redirect check,
			// because the registration already lives on this node.
			if rec := s.getRecovered(); rec != nil && f.Subscription != nil && f.Subscription.ID != "" {
				if sub, ok := rec.AttachSub(f.Subscription.ID); ok {
					cs.subs[sub.ID()] = sub
					cs.write(&Frame{Type: FrameOK, SubscriptionID: sub.ID()})
					cs.writer(s.broker).Attach(sub, sub.ID())
					continue
				}
			}
			be := s.getBackend()
			if r, ok := be.(SubscribeRedirector); ok {
				if addr := r.Redirect(f.Subscription); addr != "" {
					cs.write(&Frame{Type: FrameRedirect, Addr: addr})
					continue
				}
			}
			var opts []SubscribeOption
			if f.Replay {
				opts = append(opts, WithReplay(true))
			}
			sub, err := be.SubscribeHandle(f.Subscription, opts...)
			if err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.subs[sub.ID()] = sub
			cs.write(&Frame{Type: FrameOK, SubscriptionID: sub.ID()})
			cs.writer(s.broker).Attach(sub, sub.ID())

		case FrameQuery:
			qr := s.getQueryRegistrar()
			if qr == nil {
				cs.write(&Frame{Type: FrameError, Error: "continuous queries not supported"})
				continue
			}
			if f.Query == nil {
				cs.write(&Frame{Type: FrameError, Error: "query frame without spec"})
				continue
			}
			if rec := s.getRecovered(); rec != nil && f.Query.Name != "" {
				if q, ok := rec.AttachQuery(f.Query.Name); ok {
					cs.queries[q.Name()] = q
					cs.write(&Frame{Type: FrameOK, QueryName: q.Name()})
					cs.writer(s.broker).AttachQuery(q)
					continue
				}
			}
			// Shard placement: the query's feeding subscription decides the
			// owner, exactly like a plain subscribe — window state must live
			// where the theme's events land.
			if r, ok := s.getBackend().(SubscribeRedirector); ok && f.Query.Subscription != nil {
				if addr := r.Redirect(f.Query.Subscription); addr != "" {
					cs.write(&Frame{Type: FrameRedirect, Addr: addr})
					continue
				}
			}
			q, err := qr.RegisterQuery(f.Query)
			if err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.queries[q.Name()] = q
			cs.write(&Frame{Type: FrameOK, QueryName: q.Name()})
			cs.writer(s.broker).AttachQuery(q)

		case FrameUnsubscribe:
			if f.QueryName != "" {
				if q, ok := cs.queries[f.QueryName]; ok {
					delete(cs.queries, f.QueryName)
					q.Close()
					cs.write(&Frame{Type: FrameOK, QueryName: f.QueryName})
				} else {
					cs.write(&Frame{Type: FrameError, Error: "unknown query " + f.QueryName})
				}
				continue
			}
			if sub, ok := cs.subs[f.SubscriptionID]; ok {
				delete(cs.subs, f.SubscriptionID)
				sub.Close()
				cs.write(&Frame{Type: FrameOK, SubscriptionID: f.SubscriptionID})
			} else {
				cs.write(&Frame{Type: FrameError, Error: "unknown subscription " + f.SubscriptionID})
			}

		default:
			cs.write(&Frame{Type: FrameError, Error: "unknown frame type " + f.Type})
		}
	}
}

// Close stops accepting, closes every connection, and waits for the serving
// goroutines. The underlying broker is left open (the caller owns it).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
