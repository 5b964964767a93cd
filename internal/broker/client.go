package broker

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"thematicep/internal/event"
)

// Client connects to a broker Server over TCP. It is safe for concurrent
// use: concurrent requests are pipelined on the connection (the server
// answers in request order), deliveries and detections are dispatched to
// per-stream channels by a background reader.
type Client struct {
	conn net.Conn

	// timeout bounds each request/response exchange (zero = unbounded).
	// On expiry the connection is torn down: against a wedged daemon the
	// caller gets a fast, clear error rather than a hang.
	timeout time.Duration

	writeMu sync.Mutex // serializes frame writes and their pending slots

	mu      sync.Mutex
	pending []chan *Frame           // FIFO of waiting response channels, in write order
	subs    streams[Delivery]       // by subscription id
	queries streams[QueryDetection] // by query name
	closed  bool
	readErr error

	done chan struct{}
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("broker client: closed")

// ErrRequestTimeout is returned by requests on a client built with
// DialTimeout when the broker does not answer within the timeout. The
// connection is closed as a side effect (responses can no longer be
// matched to requests once one has been abandoned).
var ErrRequestTimeout = errors.New("broker client: request timed out")

// RedirectError is returned by Subscribe when a clustered broker does not
// own the subscription's theme shard; Addr is the owning broker to retry
// against (cmd/themctl follows it automatically).
type RedirectError struct {
	Addr string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("broker client: redirected to %s", e.Addr)
}

// Dial connects to a broker server.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout connects to a broker server with a bound on both the dial
// and every subsequent request/response exchange (publish, subscribe,
// unsubscribe acknowledgements). A wedged or unreachable daemon produces a
// timeout error within d instead of hanging the caller; streaming delivery
// reads are not bounded (an idle subscription is legitimate). d <= 0 means
// no timeout, identical to Dial.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	var conn net.Conn
	var err error
	if d > 0 {
		conn, err = net.DialTimeout("tcp", addr, d)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("broker client: %w", err)
	}
	c := &Client{
		conn:    conn,
		timeout: d,
		subs:    newStreams[Delivery](),
		queries: newStreams[QueryDetection](),
		done:    make(chan struct{}),
	}
	// The handshake: a first frame now, so the server's handshake deadline
	// never drops a client that dials and then only waits for deliveries.
	// The server does not answer it, so it takes no pending slot.
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := WriteFrame(conn, &Frame{Type: FramePing}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker client: %w", err)
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	// A wide deliverb frame is several kilobytes; the buffer takes a whole
	// burst of them per read(2).
	frames := NewFrameReader(bufio.NewReaderSize(c.conn, 64<<10))
	for {
		f, err := frames.ReadFrame()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			pending := c.pending
			c.pending = nil
			c.subs.closeAll()
			c.queries.closeAll()
			c.closed = true
			c.mu.Unlock()
			for _, ch := range pending {
				close(ch)
			}
			return
		}
		switch f.Type {
		case FrameDeliveryBatch:
			// The targets share f.Event, which is read-only from here on.
			c.mu.Lock()
			for _, t := range f.Targets {
				c.subs.route(t.SubscriptionID, Delivery{Event: f.Event, SubscriptionID: t.SubscriptionID, Score: t.Score, Replayed: t.Replay, At: f.At})
			}
			c.mu.Unlock()
		case FrameDetect:
			c.mu.Lock()
			c.queries.route(f.QueryName, QueryDetection{Query: f.QueryName, Probability: f.Probability, Events: f.Events, At: f.At})
			c.mu.Unlock()
		default:
			// Request responses arrive in request order.
			c.mu.Lock()
			var ch chan *Frame
			if len(c.pending) > 0 {
				ch = c.pending[0]
				c.pending = c.pending[1:]
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		}
	}
}

// streamBuffer is a client stream's channel capacity, the server-side queue
// default; it also bounds what is parked for a stream not yet open.
const streamBuffer = 64

// streams is the client's table of one kind of stream — subscriptions
// carrying deliveries, queries carrying detections — keyed by the name the
// server's acknowledgement gave it. Guarded by Client.mu.
type streams[T any] struct {
	open   map[string]chan T
	parked map[string][]T // arrived before the registering request returned
}

func newStreams[T any]() streams[T] {
	return streams[T]{open: make(map[string]chan T), parked: make(map[string][]T)}
}

// route hands v to its stream without blocking the reader: a full channel
// drops it (the broker queues' overflow policy), and a stream whose
// acknowledgement is still in flight to its caller gets it parked. Sends
// happen under Client.mu, so a close cannot race them.
func (s *streams[T]) route(key string, v T) {
	if ch := s.open[key]; ch != nil {
		select {
		case ch <- v:
		default:
		}
	} else if len(s.parked[key]) < streamBuffer {
		s.parked[key] = append(s.parked[key], v)
	}
}

// close closes key's channel, if it is open.
func (s *streams[T]) close(key string) {
	if ch, ok := s.open[key]; ok {
		delete(s.open, key)
		close(ch)
	}
}

// closeAll closes every open channel.
func (s *streams[T]) closeAll() {
	for key := range s.open {
		s.close(key)
	}
}

// register sends f, a request opening a stream, and opens the stream named
// by the acknowledgement: a channel that first receives what was parked for
// it, and is closed by unregister or when the connection drops.
func register[T any](c *Client, f *Frame, tab *streams[T], name func(ack *Frame) string) (string, <-chan T, error) {
	resp, err := c.request(f)
	if err != nil {
		return "", nil, err
	}
	key := name(resp)
	ch := make(chan T, streamBuffer)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// The connection died between the acknowledgement and now; the read
		// loop has already swept the table, so registering would leak an
		// open channel. Hand back a closed one instead.
		close(ch)
		return key, ch, nil
	}
	tab.open[key] = ch
	for _, v := range tab.parked[key] {
		ch <- v // parked entries never exceed the buffer
	}
	delete(tab.parked, key)
	return key, ch, nil
}

// unregister sends f, a request cancelling the stream key, and closes the
// stream's channel.
func unregister[T any](c *Client, f *Frame, tab *streams[T], key string) error {
	_, err := c.request(f)
	c.mu.Lock()
	tab.close(key)
	c.mu.Unlock()
	return err
}

// request writes a frame and waits for its ok/error response. The reply
// slot is queued and the frame written under one lock, so slots are in
// write order — the order the server answers in — and concurrent requests
// pipeline instead of waiting out each other's round trips.
func (c *Client) request(f *Frame) (*Frame, error) {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		frameBufs.Put(buf)
	}()
	if err := appendFrame(buf, f); err != nil {
		return nil, err
	}
	ch := make(chan *Frame, 1)
	c.writeMu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.writeMu.Unlock()
		return nil, ErrClientClosed
	}
	c.pending = append(c.pending, ch)
	c.mu.Unlock()
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.conn.Write(buf.Bytes())
	c.writeMu.Unlock()
	if err != nil {
		// A slot whose frame did not get out whole shifts every later
		// reply: the connection is useless now, as after a timeout.
		c.conn.Close()
		return nil, fmt.Errorf("broker client: write frame: %w", err)
	}
	var resp *Frame
	var ok bool
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		select {
		case resp, ok = <-ch:
		case <-t.C:
			// Abandoning a pending response desynchronizes the FIFO; the
			// connection is useless now, so fail fast and tear it down.
			c.conn.Close()
			return nil, ErrRequestTimeout
		}
	} else {
		resp, ok = <-ch
	}
	if !ok {
		return nil, ErrClientClosed
	}
	if resp.Type == FrameError {
		return nil, fmt.Errorf("broker client: server error: %s", resp.Error)
	}
	if resp.Type == FrameRedirect {
		return nil, &RedirectError{Addr: resp.Addr}
	}
	return resp, nil
}

// Publish sends an event and waits for the broker's acknowledgement.
func (c *Client) Publish(e *event.Event) error {
	_, err := c.request(&Frame{Type: FramePublish, Event: e})
	return err
}

// PublishBatch sends a batch of events as one publishb frame and waits for
// its single acknowledgement. Admission is all-or-nothing: an error means
// no event in the batch was published. Batches above the server's cap are
// rejected whole; an empty batch is a no-op.
func (c *Client) PublishBatch(events []*event.Event) error {
	if len(events) == 0 {
		return nil
	}
	_, err := c.request(&Frame{Type: FramePublishBatch, Events: events})
	return err
}

// Subscribe registers a subscription. When replay is true, buffered past
// events are delivered first (marked Replayed). The returned channel is
// closed on Unsubscribe or when the connection drops; its buffer matches
// the server-side queue default.
func (c *Client) Subscribe(sub *event.Subscription, replay bool) (id string, deliveries <-chan Delivery, err error) {
	return register(c, &Frame{Type: FrameSubscribe, Subscription: sub, Replay: replay}, &c.subs,
		func(ack *Frame) string { return ack.SubscriptionID })
}

// Query registers a continuous query and returns its detection stream.
// The channel is closed by UnregisterQuery or when the connection drops.
// On a clustered broker that does not own the query's theme shard, the
// error is a *RedirectError naming the owning broker.
func (c *Client) Query(spec *QuerySpec) (name string, detections <-chan QueryDetection, err error) {
	return register(c, &Frame{Type: FrameQuery, Query: spec}, &c.queries,
		func(ack *Frame) string { return ack.QueryName })
}

// UnregisterQuery cancels a continuous query and closes its detection
// channel.
func (c *Client) UnregisterQuery(name string) error {
	return unregister(c, &Frame{Type: FrameUnsubscribe, QueryName: name}, &c.queries, name)
}

// Unsubscribe cancels a subscription and closes its delivery channel.
func (c *Client) Unsubscribe(id string) error {
	return unregister(c, &Frame{Type: FrameUnsubscribe, SubscriptionID: id}, &c.subs, id)
}

// Close drops the connection; all delivery channels close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
