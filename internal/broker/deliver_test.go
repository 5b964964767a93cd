package broker

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
)

// fakeSub is a SubHandle whose queue the test fills by hand.
type fakeSub struct {
	id string

	mu     sync.Mutex
	queue  []Delivery
	notify func()
}

func newFakeSub(id string) *fakeSub { return &fakeSub{id: id} }

func (s *fakeSub) ID() string { return s.id }
func (s *fakeSub) Close()     {}
func (s *fakeSub) Take(dst []Delivery) ([]Delivery, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, s.queue...)
	s.queue = s.queue[:0]
	return dst, true
}
func (s *fakeSub) SetNotify(fn func()) {
	s.mu.Lock()
	s.notify = fn
	pending := len(s.queue) > 0
	s.mu.Unlock()
	if pending {
		fn()
	}
}

// push enqueues events in order and announces them once.
func (s *fakeSub) push(events ...*event.Event) {
	s.mu.Lock()
	for _, e := range events {
		s.queue = append(s.queue, Delivery{Event: e, SubscriptionID: s.id, Score: 1})
	}
	fn := s.notify
	s.mu.Unlock()
	fn()
}

// gatedWire captures what a DeliveryWriter sends. The writer's first send
// blocks until open is called, so everything announced in between is
// drained in one wake-up — which makes coalescing deterministic.
type gatedWire struct {
	b       *Broker       // owns the writer's accounting
	entered chan struct{} // closed when the first send is blocked
	gate    chan struct{}
	once    sync.Once

	mu   sync.Mutex
	buf  bytes.Buffer
	sent int
}

func newGatedWire() *gatedWire {
	return &gatedWire{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedWire) send(frames []byte, deliveries int) error {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.Write(frames)
	g.sent += deliveries
	return nil
}

// start returns a writer parked inside its first send.
func (g *gatedWire) start(t *testing.T) *DeliveryWriter {
	t.Helper()
	g.b = New(exactMatcher())
	t.Cleanup(g.b.Close)
	w := g.b.NewDeliveryWriter(g.send)
	t.Cleanup(w.Close)
	gate := newFakeSub("gate")
	w.Attach(gate, "gate")
	gate.push(parkingEvent("gate"))
	<-g.entered
	return w
}

// open releases the writer and returns the frames sent once want
// deliveries (the gate's included) have gone out.
func (g *gatedWire) open(t *testing.T, want int) []*Frame {
	t.Helper()
	close(g.gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		sent := g.sent
		g.mu.Unlock()
		if sent >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer sent %d deliveries, want %d", sent, want)
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var frames []*Frame
	r := bytes.NewReader(g.buf.Bytes())
	for {
		f, err := ReadFrame(r)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameDeliveryBatch {
			t.Fatalf("writer sent a %q frame", f.Type)
		}
		frames = append(frames, f)
	}
}

// perSub is the wire order of event spots per subscription.
func perSub(frames []*Frame) map[string][]string {
	out := make(map[string][]string)
	for _, f := range frames {
		for _, tg := range f.Targets {
			out[tg.SubscriptionID] = append(out[tg.SubscriptionID], f.Event.Tuples[1].Value)
		}
	}
	return out
}

// Two publishers interleaved differently on different queues: the writer
// coalesces by event, yet every subscription reads its own queue order.
func TestServerDeliveryWriterKeepsQueueOrder(t *testing.T) {
	g := newGatedWire()
	w := g.start(t)
	e1, e2, e3 := parkingEvent("e1"), parkingEvent("e2"), parkingEvent("e3")
	queues := map[string][]*event.Event{
		"a": {e1, e2, e3},
		"b": {e2, e1, e3},
		"c": {e1, e2},
		"d": {e3, e2, e1},
	}
	want := 1
	for _, id := range []string{"a", "b", "c", "d"} {
		s := newFakeSub(id)
		w.Attach(s, id)
		s.push(queues[id]...)
		want += len(queues[id])
	}
	frames := g.open(t, want)
	got := perSub(frames)
	for id, q := range queues {
		var spots []string
		for _, e := range q {
			spots = append(spots, e.Tuples[1].Value)
		}
		if fmt.Sprint(got[id]) != fmt.Sprint(spots) {
			t.Errorf("subscription %s read %v, queue order was %v", id, got[id], spots)
		}
	}
	// 11 deliveries of 3 events: coalescing must have shared frames.
	if n := len(frames) - 1; n >= want-1 {
		t.Errorf("%d frames for %d deliveries: nothing was coalesced", n, want-1)
	}
}

// A fan-out wider than the target cap splits into several frames and loses
// nothing.
func TestServerDeliveryFanoutAboveCapSplits(t *testing.T) {
	g := newGatedWire()
	w := g.start(t)
	const n = maxFrameTargets + 100
	e := parkingEvent("wide")
	for i := 0; i < n; i++ {
		s := newFakeSub(fmt.Sprintf("s%d", i))
		w.Attach(s, s.id)
		s.push(e)
	}
	frames := g.open(t, n+1)[1:] // minus the gate's
	if len(frames) != 2 {
		t.Errorf("%d frames for %d targets, want 2", len(frames), n)
	}
	seen := make(map[string]int)
	for _, f := range frames {
		if len(f.Targets) > maxFrameTargets {
			t.Errorf("frame carries %d targets, cap is %d", len(f.Targets), maxFrameTargets)
		}
		for _, tg := range f.Targets {
			seen[tg.SubscriptionID]++
		}
	}
	if len(seen) != n {
		t.Errorf("%d subscriptions reached, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("subscription %s delivered %d times", id, c)
		}
	}
}

// Targets whose IDs push a frame past MaxFrameSize are spread over frames
// that fit; the frame-size cap holds on everything sent.
func TestServerDeliveryOversizeFrameIsHalved(t *testing.T) {
	g := newGatedWire()
	w := g.start(t)
	e := parkingEvent("big")
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("%d-%s", i, strings.Repeat("x", MaxFrameSize/2-1024))
		ids[id] = true
		s := newFakeSub(id)
		w.Attach(s, id)
		s.push(e)
	}
	frames := g.open(t, 4)[1:] // ReadFrame inside enforces MaxFrameSize
	for _, f := range frames {
		for _, tg := range f.Targets {
			delete(ids, tg.SubscriptionID)
		}
	}
	if len(ids) != 0 || len(frames) < 2 {
		t.Errorf("%d frames, %d of 3 targets missing", len(frames), len(ids))
	}
}

// A target that cannot fit in MaxFrameSize even alone is the write stage's
// one loss: it is counted in stopped{write, oversize}, and the other targets
// of the same wake-up still arrive.
func TestServerDeliveryOversizeTargetCounted(t *testing.T) {
	g := newGatedWire()
	w := g.start(t)
	huge := parkingEvent("huge")
	huge.Tuples = append(huge.Tuples, event.Tuple{Attr: "blob", Value: strings.Repeat("x", MaxFrameSize)})
	big, small := newFakeSub("big"), newFakeSub("small")
	w.Attach(big, "big")
	w.Attach(small, "small")
	big.push(parkingEvent("a"), huge, parkingEvent("b"))
	small.push(parkingEvent("c"))
	got := perSub(g.open(t, 1+3)[1:]) // the gate's, then big's a and b and small's c
	if fmt.Sprint(got) != "map[big:[a b] small:[c]]" {
		t.Errorf("delivered %v, want big [a b] and small [c]", got)
	}
	if n := g.b.ctr[cWriteOversize].Load(); n != 1 {
		t.Errorf("stopped{write, oversize} = %d, want 1", n)
	}
}

// A query's detections leave through the same writer as detect frames, one
// per detection; a frame slot reused across wake-ups by the other kind
// carries nothing of its previous frame.
func TestServerDeliveryWriterDetectFrames(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	sends := make(chan []byte, 3)
	w := b.NewDeliveryWriter(func(frames []byte, _ int) error {
		sends <- bytes.Clone(frames)
		return nil
	})
	defer w.Close()
	sub, q := newFakeSub("s"), &fakeQueryHandle{name: "q"}
	w.Attach(sub, "s")
	w.AttachQuery(q)
	next := func() *Frame { // one wake-up, one frame
		t.Helper()
		select {
		case buf := <-sends:
			f, err := ReadFrame(bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			return f
		case <-time.After(5 * time.Second):
			t.Fatal("writer sent nothing")
			return nil
		}
	}

	q.push(QueryDetection{Query: "q", Probability: 0.5, Events: []*event.Event{parkingEvent("d1")}})
	if f := next(); f.Type != FrameDetect || f.QueryName != "q" || f.Probability != 0.5 || len(f.Events) != 1 || f.Event != nil || len(f.Targets) != 0 {
		t.Errorf("first detection went out as %+v", f)
	}
	sub.push(parkingEvent("e1"))
	if f := next(); f.Type != FrameDeliveryBatch || len(f.Targets) != 1 || f.QueryName != "" || f.Events != nil || f.Probability != 0 {
		t.Errorf("delivery after a detection went out as %+v", f)
	}
	q.push(QueryDetection{Query: "q", Probability: 0.25, Events: []*event.Event{parkingEvent("d2")}})
	if f := next(); f.Type != FrameDetect || f.Event != nil || len(f.Targets) != 0 || f.Events[0].Tuples[1].Value != "d2" {
		t.Errorf("detection after a delivery went out as %+v", f)
	}
}

// rawConn speaks frames to a server without Client in between, so a test
// sees the order of frames on the wire.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *rawConn) write(f *Frame) {
	c.t.Helper()
	if err := WriteFrame(c.conn, f); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) read() *Frame {
	c.t.Helper()
	f, err := ReadFrame(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return f
}

// The subscribe ok precedes the subscription's first deliverb target on the
// wire when deliveries are already queued at attach time: a replay backlog,
// and a WAL-recovered handle that buffered while its client was away.
func TestServerDeliveryOKPrecedesQueuedDeliveries(t *testing.T) {
	b := New(exactMatcher())
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })

	parked := parkingSub()
	parked.ID = "recovered-1"
	h, err := b.SubscribeHandle(parked)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecovered()
	rec.ParkSub(h)
	srv.SetRecovered(rec)
	for i := 0; i < 3; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("early-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name   string
		id     string
		replay bool
	}{
		{"replay", "replayed-1", true},
		{"recovered", "recovered-1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr.String())
			sub := parkingSub()
			sub.ID = tc.id
			c.write(&Frame{Type: FrameSubscribe, Subscription: sub, Replay: tc.replay})
			if f := c.read(); f.Type != FrameOK || f.SubscriptionID != tc.id {
				t.Fatalf("first frame = %+v, want the subscribe ok", f)
			}
			for got := 0; got < 3; {
				f := c.read()
				if f.Type != FrameDeliveryBatch {
					t.Fatalf("frame = %+v, want deliverb", f)
				}
				for _, tg := range f.Targets {
					if tg.SubscriptionID != tc.id || tg.Replay != tc.replay {
						t.Errorf("target = %+v", tg)
					}
					if want := fmt.Sprintf("early-%d", got); f.Event.Tuples[1].Value != want {
						t.Errorf("delivery %d is %s, want %s", got, f.Event.Tuples[1].Value, want)
					}
					got++
				}
			}
		})
	}
}

// Subscribes racing a live publisher on one connection: no deliverb target
// names a subscription before its ok, and two publishers' events reach
// every subscription in each publisher's order.
func TestServerDeliveryOrderUnderConcurrentPublishers(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0))
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })

	const subs, perPublisher = 40, 25 // 50 deliveries per subscription: below every 64-slot queue
	c := dialRaw(t, addr.String())

	// Phase 1: acks against a running publisher.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.Publish(parkingEvent(fmt.Sprintf("bg-%d", i)))
			}
		}
	}()
	go func() {
		for i := 0; i < subs; i++ {
			sub := parkingSub()
			sub.ID = fmt.Sprintf("s%d", i)
			WriteFrame(c.conn, &Frame{Type: FrameSubscribe, Subscription: sub})
		}
	}()
	acked := make(map[string]bool)
	for len(acked) < subs {
		f := c.read()
		switch f.Type {
		case FrameOK:
			acked[f.SubscriptionID] = true
		case FrameDeliveryBatch:
			for _, tg := range f.Targets {
				if !acked[tg.SubscriptionID] {
					t.Fatalf("deliverb names %s before its ok", tg.SubscriptionID)
				}
			}
		default:
			t.Fatalf("frame = %+v", f)
		}
	}
	close(stop)
	bg.Wait()

	// Phase 2: two publishers interleave; the writer coalesces their events
	// across the 40 subscriptions.
	var pubs sync.WaitGroup
	for _, p := range []string{"a", "b"} {
		pubs.Add(1)
		go func(p string) {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				if err := b.Publish(parkingEvent(fmt.Sprintf("%s-%d", p, i))); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	next := make(map[string]map[string]int) // subscription -> publisher -> next index
	for i := 0; i < subs; i++ {
		next[fmt.Sprintf("s%d", i)] = map[string]int{}
	}
	frames, remaining := 0, subs*2*perPublisher
	for remaining > 0 {
		f := c.read()
		if f.Type != FrameDeliveryBatch {
			t.Fatalf("frame = %+v", f)
		}
		spot := f.Event.Tuples[1].Value
		if strings.HasPrefix(spot, "bg-") {
			continue // phase 1's tail
		}
		frames++
		p, idx := spot[:1], 0
		fmt.Sscanf(spot[2:], "%d", &idx)
		for _, tg := range f.Targets {
			if want := next[tg.SubscriptionID][p]; idx != want {
				t.Fatalf("subscription %s got %s, want %s-%d next", tg.SubscriptionID, spot, p, want)
			}
			next[tg.SubscriptionID][p]++
			remaining--
		}
	}
	pubs.Wait()
	if frames >= subs*2*perPublisher {
		t.Errorf("%d frames for %d deliveries: nothing was coalesced", frames, subs*2*perPublisher)
	}
}

// One connection's subscriptions share one writer goroutine.
func TestServerDeliveryGoroutinesPerConnection(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0))
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	c := dialRaw(t, addr.String())
	c.write(&Frame{Type: FramePublish, Event: parkingEvent("warm")}) // the serving goroutine exists from here
	c.read()

	const subs = 2000
	before := runtime.NumGoroutine()
	for i := 0; i < subs; i++ {
		c.write(&Frame{Type: FrameSubscribe, Subscription: parkingSub()})
		if f := c.read(); f.Type != FrameOK {
			t.Fatalf("subscribe %d: %+v", i, f)
		}
	}
	if err := b.Publish(parkingEvent("all")); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < subs; {
		f := c.read()
		if f.Type != FrameDeliveryBatch {
			t.Fatalf("frame = %+v", f)
		}
		got += len(f.Targets)
	}
	if added := runtime.NumGoroutine() - before; added >= 10 {
		t.Errorf("%d subscriptions on one connection added %d goroutines, want fewer than 10", subs, added)
	}
}

// recordingPeer is a PeerHandler that reads frames off the conn it is
// handed until the peer hangs up.
type recordingPeer struct {
	frames chan *Frame
}

func (p *recordingPeer) ServePeer(conn net.Conn, hello *Frame) {
	p.frames <- hello
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			close(p.frames)
			return
		}
		p.frames <- f
	}
}

// Frames pipelined behind hello in the same segment sit in the server's
// read buffer when the connection changes hands; ServePeer must see them.
func TestServerDeliveryHelloHandoffKeepsBufferedFrames(t *testing.T) {
	srv, addr := startServer(t)
	peer := &recordingPeer{frames: make(chan *Frame, 8)}
	srv.SetPeerHandler(peer)

	var segment bytes.Buffer
	for _, f := range []*Frame{
		{Type: FrameHello, NodeID: "n1"},
		{Type: FramePing, NodeID: "n1"},
		{Type: FrameForwardBatch, NodeID: "n1", Events: []*event.Event{parkingEvent("pipelined")}},
	} {
		if err := WriteFrame(&segment, f); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(segment.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	var got []string
	for f := range peer.frames {
		got = append(got, f.Type)
		if f.Type == FrameForwardBatch && f.Events[0].Tuples[1].Value != "pipelined" {
			t.Errorf("forward frame = %+v", f)
		}
	}
	if want := []string{FrameHello, FramePing, FrameForwardBatch}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ServePeer saw %v, want %v", got, want)
	}
}
