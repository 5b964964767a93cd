package broker

import (
	"bufio"
	"errors"
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

// Backend is the pub/sub engine a Server fronts, fixed by WithBackend at
// construction. The local Broker is the default; a cluster node substitutes
// itself to add theme-routed federation without the server knowing. The
// server asks the backend for the optional PeerHandler and
// SubscribeRedirector behaviours by type assertion.
type Backend interface {
	// PublishBatch receives a publishb frame as one batch with
	// all-or-nothing admission, and a publish frame as a batch of one.
	PublishBatch(events []*event.Event) error
	SubscribeHandle(sub *event.Subscription, opts ...SubscribeOption) (SubHandle, error)
}

// DefaultMaxBatch caps how many events one publishb frame may carry unless
// overridden with WithMaxBatch. The cap bounds the per-frame work a single
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
// peers with a hello frame. A Backend that implements it (internal/cluster's
// node does) serves the server's peer connections; when the backend does
// not, hello frames are answered with a "not clustered" error and the
// connection stays a client connection.
type PeerHandler interface {
	// ServePeer owns the connection until it returns; the server closes
	// the conn afterwards. Reads on conn continue after the hello frame,
	// including bytes the server had already buffered behind it.
	ServePeer(conn net.Conn, hello *Frame)
}

// SubscribeRedirector lets a Backend redirect a subscription to the broker
// owning its theme shard; the server uses it when the backend implements
// it. A non-empty address is sent to the client as a redirect frame instead
// of registering locally.
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
// Without one, query frames are answered with an error.
type QueryRegistrar interface {
	RegisterQuery(spec *QuerySpec) (QueryHandle, error)
}

// Server exposes a Backend over a stream listener using the wire protocol.
// One server serves many client connections; each connection may hold many
// subscriptions. Its wiring is fixed by NewServer.
type Server struct {
	broker           *Broker
	backend          Backend
	queries          QueryRegistrar
	recovered        *Recovered
	maxBatch         int
	handshakeTimeout time.Duration

	mu       sync.Mutex // guards listener, conns and done's closing
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{} // closed by Close
	wg       sync.WaitGroup
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithBackend routes requests to be instead of the broker (for example a
// cluster node wrapping it). A backend that implements PeerHandler takes
// the server's federation peer connections; one that implements
// SubscribeRedirector redirects subscriptions to their owning shard.
func WithBackend(be Backend) ServerOption { return func(s *Server) { s.backend = be } }

// WithQueryRegistrar installs the continuous-query engine behind query
// frames.
func WithQueryRegistrar(qr QueryRegistrar) ServerOption {
	return func(s *Server) { s.queries = qr }
}

// WithRecovered installs the WAL-recovered registration registry: subscribe
// and query frames naming a parked registration adopt it instead of
// re-registering.
func WithRecovered(r *Recovered) ServerOption { return func(s *Server) { s.recovered = r } }

// WithMaxBatch overrides the largest batch one publishb frame may carry
// (DefaultMaxBatch). Oversized batches are rejected whole with an error
// frame. Zero or negative disables the cap.
func WithMaxBatch(n int) ServerOption { return func(s *Server) { s.maxBatch = n } }

// WithHandshakeTimeout overrides how long a new connection may wait before
// its first frame (DefaultHandshakeTimeout). Zero or negative disables the
// bound.
func WithHandshakeTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.handshakeTimeout = d }
}

// NewServer builds a server in front of b, wired once: requests go to b (or
// to the WithBackend engine), with DefaultMaxBatch and
// DefaultHandshakeTimeout unless overridden. Deliveries are written through
// b's delivery writers. Nothing is accepted until Serve.
func NewServer(b *Broker, opts ...ServerOption) *Server {
	s := &Server{
		broker:           b,
		backend:          b,
		maxBatch:         DefaultMaxBatch,
		handshakeTimeout: DefaultHandshakeTimeout,
		conns:            make(map[net.Conn]struct{}),
		done:             make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve starts accepting connections on ln, which the caller made (a TCP
// listener, or a wrapped or in-memory one), and returns at once; serving
// happens on background goroutines until Close, which closes ln. A server
// serves one listener. Serving on a closed server closes ln.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing() {
		ln.Close()
		return
	}
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) closing() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.closing() {
				return
			}
			// Any other failure — EMFILE at the descriptor limit, say —
			// passes: back off as net/http does, 5 ms doubling to 1 s, and
			// accept again, so a daemon outlives its descriptor crunch.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closing() {
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
	if s.handshakeTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.handshakeTimeout))
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
			if h, ok := s.backend.(PeerHandler); ok {
				h.ServePeer(bufferedConn{conn, br}, f)
				return
			}
			cs.write(&Frame{Type: FrameError, Error: "not clustered"})

		case FramePing:
			// Client's dial-time handshake: it proves the connection, so an
			// idle subscriber is not dropped by the deadline. Never answered
			// — the client has no request waiting on it.

		case FramePublish:
			if err := s.backend.PublishBatch([]*event.Event{f.Event}); err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.write(&Frame{Type: FrameOK})

		case FramePublishBatch:
			if s.maxBatch > 0 && len(f.Events) > s.maxBatch {
				cs.write(&Frame{Type: FrameError,
					Error: fmt.Sprintf("batch of %d events exceeds server cap %d", len(f.Events), s.maxBatch)})
				continue
			}
			if err := s.backend.PublishBatch(f.Events); err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.write(&Frame{Type: FrameOK, Count: len(f.Events)})

		case FrameSubscribe:
			// A reconnecting client that survived our restart adopts its
			// WAL-recovered registration by ID — before the redirect check,
			// because the registration already lives on this node.
			if s.recovered != nil && f.Subscription != nil && f.Subscription.ID != "" {
				if sub, ok := s.recovered.AttachSub(f.Subscription.ID); ok {
					cs.subs[sub.ID()] = sub
					cs.write(&Frame{Type: FrameOK, SubscriptionID: sub.ID()})
					cs.writer(s.broker).Attach(sub, sub.ID())
					continue
				}
			}
			if r, ok := s.backend.(SubscribeRedirector); ok {
				if addr := r.Redirect(f.Subscription); addr != "" {
					cs.write(&Frame{Type: FrameRedirect, Addr: addr})
					continue
				}
			}
			var opts []SubscribeOption
			if f.Replay {
				opts = append(opts, WithReplay(true))
			}
			sub, err := s.backend.SubscribeHandle(f.Subscription, opts...)
			if err != nil {
				cs.write(&Frame{Type: FrameError, Error: err.Error()})
				continue
			}
			cs.subs[sub.ID()] = sub
			cs.write(&Frame{Type: FrameOK, SubscriptionID: sub.ID()})
			cs.writer(s.broker).Attach(sub, sub.ID())

		case FrameQuery:
			if s.queries == nil {
				cs.write(&Frame{Type: FrameError, Error: "continuous queries not supported"})
				continue
			}
			if f.Query == nil {
				cs.write(&Frame{Type: FrameError, Error: "query frame without spec"})
				continue
			}
			if s.recovered != nil && f.Query.Name != "" {
				if q, ok := s.recovered.AttachQuery(f.Query.Name); ok {
					cs.queries[q.Name()] = q
					cs.write(&Frame{Type: FrameOK, QueryName: q.Name()})
					cs.writer(s.broker).AttachQuery(q)
					continue
				}
			}
			// Shard placement: the query's feeding subscription decides the
			// owner, exactly like a plain subscribe — window state must live
			// where the theme's events land.
			if r, ok := s.backend.(SubscribeRedirector); ok && f.Query.Subscription != nil {
				if addr := r.Redirect(f.Query.Subscription); addr != "" {
					cs.write(&Frame{Type: FrameRedirect, Addr: addr})
					continue
				}
			}
			q, err := s.queries.RegisterQuery(f.Query)
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
	if s.closing() {
		s.mu.Unlock()
		return
	}
	close(s.done)
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
