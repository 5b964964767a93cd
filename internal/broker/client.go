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
// answers in request order), deliveries are dispatched to per subscription
// channels by a background reader.
type Client struct {
	conn net.Conn

	// timeout bounds each request/response exchange (zero = unbounded).
	// On expiry the connection is torn down: against a wedged daemon the
	// caller gets a fast, clear error rather than a hang.
	timeout time.Duration

	writeMu sync.Mutex // serializes frame writes and their pending slots

	mu       sync.Mutex
	pending  []chan *Frame                  // FIFO of waiting response channels, in write order
	subs     map[string]chan Delivery       // subscription id -> delivery channel
	orphans  map[string][]Delivery          // deliveries that raced Subscribe's return
	queries  map[string]chan QueryDetection // query name -> detection channel
	qorphans map[string][]QueryDetection    // detections that raced Query's return
	closed   bool
	readErr  error

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
		conn:     conn,
		timeout:  d,
		subs:     make(map[string]chan Delivery),
		orphans:  make(map[string][]Delivery),
		queries:  make(map[string]chan QueryDetection),
		qorphans: make(map[string][]QueryDetection),
		done:     make(chan struct{}),
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
			subs := c.subs
			c.subs = make(map[string]chan Delivery)
			queries := c.queries
			c.queries = make(map[string]chan QueryDetection)
			c.closed = true
			c.mu.Unlock()
			for _, ch := range pending {
				close(ch)
			}
			for _, ch := range subs {
				close(ch)
			}
			for _, ch := range queries {
				close(ch)
			}
			return
		}
		if f.Type == FrameDetect {
			d := QueryDetection{
				Query:       f.QueryName,
				Probability: f.Probability,
				Events:      f.Events,
				At:          f.At,
			}
			// Same discipline as deliveries: route under the lock, never
			// block the reader, park detections that raced Query's return.
			c.mu.Lock()
			if ch := c.queries[f.QueryName]; ch != nil {
				select {
				case ch <- d:
				default:
				}
			} else if len(c.qorphans[f.QueryName]) < 64 {
				c.qorphans[f.QueryName] = append(c.qorphans[f.QueryName], d)
			}
			c.mu.Unlock()
			continue
		}
		if f.Type == FrameDeliveryBatch {
			c.dispatch(f.Event, f.At, f.Targets)
			continue
		}
		if f.Type == FrameDelivery {
			// The legacy one-target frame: nothing in the tree sends it any
			// more, but it is the same dispatch with one target.
			c.dispatch(f.Event, f.At, []DeliveryTarget{{SubscriptionID: f.SubscriptionID, Score: f.Score, Replay: f.Replay}})
			continue
		}
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

// dispatch routes one frame's deliveries to their subscription channels
// under a single lock acquisition. The targets share e, which is read-only
// from here on. Sends happen under the lock so Unsubscribe's close cannot
// race them; a full buffer drops the delivery (the same overflow policy as
// the broker's subscriber queues), so the reader never blocks on a slow
// consumer.
func (c *Client) dispatch(e *event.Event, at time.Time, targets []DeliveryTarget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range targets {
		d := Delivery{Event: e, SubscriptionID: t.SubscriptionID, Score: t.Score, Replayed: t.Replay, At: at}
		if ch := c.subs[t.SubscriptionID]; ch != nil {
			select {
			case ch <- d:
			default:
			}
		} else if len(c.orphans[t.SubscriptionID]) < 64 {
			// The subscribe acknowledgement is still in flight to the
			// caller; park the delivery until Subscribe registers.
			c.orphans[t.SubscriptionID] = append(c.orphans[t.SubscriptionID], d)
		}
	}
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
	resp, err := c.request(&Frame{Type: FrameSubscribe, Subscription: sub, Replay: replay})
	if err != nil {
		return "", nil, err
	}
	ch := make(chan Delivery, 64)
	c.mu.Lock()
	if c.closed {
		// The connection died between the acknowledgement and now; the
		// read loop has already swept c.subs, so registering would leak
		// an open channel. Hand back a closed one instead.
		c.mu.Unlock()
		close(ch)
		return resp.SubscriptionID, ch, nil
	}
	c.subs[resp.SubscriptionID] = ch
	for _, d := range c.orphans[resp.SubscriptionID] {
		select {
		case ch <- d:
		default:
		}
	}
	delete(c.orphans, resp.SubscriptionID)
	c.mu.Unlock()
	return resp.SubscriptionID, ch, nil
}

// Query registers a continuous query and returns its detection stream.
// The channel is closed by UnregisterQuery or when the connection drops.
// On a clustered broker that does not own the query's theme shard, the
// error is a *RedirectError naming the owning broker.
func (c *Client) Query(spec *QuerySpec) (name string, detections <-chan QueryDetection, err error) {
	resp, err := c.request(&Frame{Type: FrameQuery, Query: spec})
	if err != nil {
		return "", nil, err
	}
	ch := make(chan QueryDetection, 64)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		close(ch)
		return resp.QueryName, ch, nil
	}
	c.queries[resp.QueryName] = ch
	for _, d := range c.qorphans[resp.QueryName] {
		select {
		case ch <- d:
		default:
		}
	}
	delete(c.qorphans, resp.QueryName)
	c.mu.Unlock()
	return resp.QueryName, ch, nil
}

// UnregisterQuery cancels a continuous query and closes its detection
// channel.
func (c *Client) UnregisterQuery(name string) error {
	_, err := c.request(&Frame{Type: FrameUnsubscribe, QueryName: name})
	c.mu.Lock()
	if ch, ok := c.queries[name]; ok {
		delete(c.queries, name)
		close(ch)
	}
	c.mu.Unlock()
	return err
}

// Unsubscribe cancels a subscription and closes its delivery channel.
func (c *Client) Unsubscribe(id string) error {
	_, err := c.request(&Frame{Type: FrameUnsubscribe, SubscriptionID: id})
	c.mu.Lock()
	if ch, ok := c.subs[id]; ok {
		delete(c.subs, id)
		close(ch)
	}
	c.mu.Unlock()
	return err
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
