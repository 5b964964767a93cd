package broker

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
)

func TestWireFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: FramePublish, Event: parkingEvent("p1")},
		{Type: FrameSubscribe, Subscription: parkingSub(), Replay: true},
		{Type: FrameDelivery, Event: parkingEvent("p2"), SubscriptionID: "s1", Score: 0.75},
		{Type: FrameDeliveryBatch, Event: parkingEvent("p3"), Targets: []DeliveryTarget{
			{SubscriptionID: "s1", Score: 0.75}, {SubscriptionID: "s2", Score: 1, Replay: true}}},
		{Type: FrameOK, SubscriptionID: "s1"},
		{Type: FrameError, Error: "boom"},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.SubscriptionID != want.SubscriptionID ||
			got.Score != want.Score || got.Error != want.Error || got.Replay != want.Replay ||
			!slices.Equal(got.Targets, want.Targets) {
			t.Errorf("frame = %+v, want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

// TestReadFrameReusedBuffer reads frames that grow and then shrink through
// one FrameReader: each decodes exactly as a fresh ReadFrame decodes it, and
// no decoded Frame changes when the buffer it came from is overwritten — by
// the frames after it, and then by the test.
func TestReadFrameReusedBuffer(t *testing.T) {
	var wire bytes.Buffer
	for i, tuples := range []int{1, 12, 300, 12, 1, 0} {
		e := &event.Event{ID: fmt.Sprintf("e%d", i), Theme: []string{"land transport"}}
		for j := 0; j < tuples; j++ {
			e.Tuples = append(e.Tuples, event.Tuple{
				Attr: fmt.Sprintf("attr %d.%d", i, j), Value: fmt.Sprintf("value %d.%d", i, j)})
		}
		f := &Frame{Type: FrameDeliveryBatch, Event: e, At: time.Unix(1700000000+int64(i), 0).UTC(),
			Targets: []DeliveryTarget{{SubscriptionID: fmt.Sprintf("sub-%d", i), Score: 0.5}}}
		if err := WriteFrame(&wire, f); err != nil {
			t.Fatal(err)
		}
	}
	fresh := bytes.NewReader(wire.Bytes())
	fr := NewFrameReader(bytes.NewReader(wire.Bytes()))
	var want, got []*Frame
	for {
		w, werr := ReadFrame(fresh)
		g, gerr := fr.ReadFrame()
		if werr != gerr {
			t.Fatalf("frame %d: reused reader err = %v, fresh = %v", len(want), gerr, werr)
		}
		if werr == io.EOF {
			break
		}
		if werr != nil {
			t.Fatal(werr)
		}
		want, got = append(want, w), append(got, g)
	}
	if len(want) != 6 {
		t.Fatalf("read %d frames, wrote 6", len(want))
	}
	scribble := fr.payload[:cap(fr.payload)]
	for i := range scribble {
		scribble[i] = 'X'
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d through the reused buffer = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("err = %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 2, '{', 'x'})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("garbage decoded")
	}
}

// A byte flipped inside a JSON string still parses — encoding/json swaps
// the invalid UTF-8 for U+FFFD — so ReadFrame has to refuse it itself, or a
// corrupted link yields frames with mangled IDs and member addresses.
func TestReadFrameRejectsCorruptedString(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: FrameHello, NodeID: "127.0.0.1:7070"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[bytes.Index(b, []byte("7070"))] ^= 0xff
	if f, err := ReadFrame(bytes.NewReader(b)); err == nil {
		t.Errorf("corrupted frame decoded as %+v", f)
	}
}

// serveLocal serves srv on a free loopback port and returns its address.
func serveLocal(t *testing.T, srv *Server) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	return ln.Addr()
}

// startServer spins up a broker server on a random port.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	b := New(exactMatcher())
	srv := NewServer(b)
	addr := serveLocal(t, srv)
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})
	return srv, addr.String()
}

func TestClientPublishSubscribeOverTCP(t *testing.T) {
	_, addr := startServer(t)

	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	id, deliveries, err := consumer.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty subscription id")
	}

	if err := producer.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if d.Event == nil || d.Event.Tuples[1].Value != "p1" || d.SubscriptionID != id {
			t.Errorf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestClientReplayOverTCP(t *testing.T) {
	_, addr := startServer(t)
	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.Publish(parkingEvent("early")); err != nil {
		t.Fatal(err)
	}

	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	_, deliveries, err := consumer.Subscribe(parkingSub(), true)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if !d.Replayed || d.Event.Tuples[1].Value != "early" {
			t.Errorf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestClientUnsubscribe(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-deliveries; ok {
		t.Error("channel not closed after unsubscribe")
	}
	if err := c.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe should error")
	}
}

func TestClientServerErrorPropagation(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(&event.Event{}); err == nil || !strings.Contains(err.Error(), "server error") {
		t.Errorf("invalid publish: %v", err)
	}
	// The connection must survive the error.
	if err := c.Publish(parkingEvent("p1")); err != nil {
		t.Errorf("publish after error: %v", err)
	}
}

func TestClientCloseClosesDeliveries(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-deliveries:
		if ok {
			t.Error("unexpected delivery after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery channel not closed")
	}
	if err := c.Publish(parkingEvent("p1")); err == nil {
		t.Error("publish after close succeeded")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case _, ok := <-deliveries:
		if ok {
			t.Error("unexpected delivery")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery channel not closed after server close")
	}
}

func TestMultipleClientsConcurrent(t *testing.T) {
	_, addr := startServer(t)

	const consumers = 3
	var wg sync.WaitGroup
	counts := make([]int, consumers)
	ready := make(chan struct{}, consumers)
	done := make(chan struct{})
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				ready <- struct{}{}
				return
			}
			defer c.Close()
			_, deliveries, err := c.Subscribe(parkingSub(), false)
			if err != nil {
				t.Error(err)
				ready <- struct{}{}
				return
			}
			ready <- struct{}{}
			for {
				select {
				case <-deliveries:
					counts[i]++
					if counts[i] == 10 {
						return
					}
				case <-done:
					return
				}
			}
		}(i)
	}
	for i := 0; i < consumers; i++ {
		<-ready
	}

	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	for i := 0; i < 10; i++ {
		if err := producer.Publish(parkingEvent("p")); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(5 * time.Second)
		close(done)
	}()
	wg.Wait()
	for i, n := range counts {
		if n != 10 {
			t.Errorf("consumer %d received %d, want 10", i, n)
		}
	}
}
