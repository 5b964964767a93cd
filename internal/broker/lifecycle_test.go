package broker

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerCloseWithInFlightClients closes the server while several
// connected clients hold live subscriptions and a publisher is mid-stream:
// Close must return (no goroutine leak or deadlock), every client's
// delivery channels must close, and the broker itself must stay usable
// because the caller owns it.
func TestServerCloseWithInFlightClients(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	chans := make([]<-chan Delivery, clients)
	conns := make([]*Client, clients)
	for i := 0; i < clients; i++ {
		c, err := Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		if _, chans[i], err = c.Subscribe(parkingSub(), false); err != nil {
			t.Fatal(err)
		}
	}

	// Keep publishes in flight while the server shuts down; errors are
	// expected once the conn drops, panics and hangs are not.
	producer, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if producer.Publish(parkingEvent("p")) != nil {
				return
			}
		}
	}()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return with in-flight connections")
	}
	wg.Wait()
	producer.Close()

	for i, ch := range chans {
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-ch:
			case <-deadline:
				t.Fatalf("client %d delivery channel still open after server close", i)
			}
		}
		conns[i].Close()
	}

	// The broker survives its server.
	if b.Stats().Subscribers != 0 {
		t.Errorf("subscribers = %d after server close, want 0", b.Stats().Subscribers)
	}
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatalf("broker unusable after server close: %v", err)
	}
	sub.Close()
}

// TestHandshakeDeadlineDropsSilentConn: a connection that never sends its
// first frame is dropped at the handshake timeout instead of holding a
// serving goroutine forever — while a connection that has identified
// itself may idle indefinitely (subscribers legitimately wait).
func TestHandshakeDeadlineDropsSilentConn(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	srv := NewServer(b)
	srv.SetHandshakeTimeout(100 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Silent connection: closed by the server within the timeout.
	silent, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatal("server wrote to a silent connection instead of closing it")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("silent connection still open 5s past a 100ms handshake timeout")
	}

	// A connection that handshakes promptly may then idle past the
	// timeout: the deadline must be cleared after the first frame.
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // 3x the handshake timeout
	producer, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.Publish(parkingEvent("idle-ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if v, _ := d.Event.Value("spot"); v != "idle-ok" {
			t.Errorf("delivery = %+v, want spot=idle-ok", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle subscriber connection was dropped by the handshake deadline")
	}
}

// TestIdleClientSurvivesHandshakeDeadline: a client that dials and then
// says nothing past the handshake timeout keeps its connection — Dial's
// ping was its first frame — and can still subscribe and receive.
func TestIdleClientSurvivesHandshakeDeadline(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	srv := NewServer(b)
	srv.SetHandshakeTimeout(100 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(300 * time.Millisecond) // 3x the handshake timeout, silent
	_, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatalf("subscribe after idling: %v", err)
	}
	if err := b.Publish(parkingEvent("after-idle")); err != nil {
		t.Fatal(err)
	}
	select {
	case d, ok := <-deliveries:
		if !ok {
			t.Fatal("delivery channel closed: the idle client was dropped")
		}
		if v, _ := d.Event.Value("spot"); v != "after-idle" {
			t.Errorf("delivery = %+v, want spot=after-idle", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to a client that idled past the handshake timeout")
	}
}

// TestClientPipelinesRequests: concurrent requests are all on the wire
// before the first reply — a server that answers nothing until it has read
// N request frames sees all N — and each caller gets its own reply.
func TestClientPipelinesRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 8
	seen := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			seen <- 0
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(conn)
		var spots []string
		for len(spots) < n {
			f, err := ReadFrame(r)
			if err != nil {
				break
			}
			if f.Type == FramePublish {
				spots = append(spots, f.Event.Tuples[1].Value)
			}
		}
		seen <- len(spots)
		// Replies in read order, each naming its request.
		for _, spot := range spots {
			WriteFrame(conn, &Frame{Type: FrameError, Error: spot})
		}
		conn.SetReadDeadline(time.Time{})
		io.Copy(io.Discard, r) // hold the connection until the client leaves
	}()

	c, err := DialTimeout(ln.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Publish(parkingEvent(fmt.Sprintf("p%d", i)))
		}(i)
	}
	if got := <-seen; got != n {
		t.Errorf("server read %d request frames before answering, want %d: requests did not pipeline", got, n)
	}
	wg.Wait()
	for i, err := range errs {
		if want := fmt.Sprintf("p%d", i); err == nil || !strings.HasSuffix(err.Error(), ": "+want) {
			t.Errorf("publish %s: err = %v, want the reply naming %s", want, err, want)
		}
	}
}

// TestClientRequestTimeout: a DialTimeout client against a daemon that
// accepts but never answers fails the request within the timeout with
// ErrRequestTimeout rather than hanging.
func TestClientRequestTimeout(t *testing.T) {
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
			defer conn.Close() // wedged daemon: reads nothing, answers nothing
		}
	}()

	c, err := DialTimeout(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Publish(parkingEvent("p"))
	if err == nil {
		t.Fatal("publish against a wedged daemon succeeded")
	}
	if !errors.Is(err, ErrRequestTimeout) && !errors.Is(err, ErrClientClosed) {
		t.Errorf("err = %v, want ErrRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("publish took %v against a 100ms timeout", elapsed)
	}
}

// TestServerSurvivesNilSubscription: a subscribe frame with a null
// subscription payload must produce an error frame, not a panic that kills
// the serving goroutine.
func TestServerSurvivesNilSubscription(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Frame{Type: FrameSubscribe}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError {
		t.Errorf("frame = %+v, want error frame", f)
	}
}

// TestReadFrameEOFSemantics pins the shutdown-detection contract: a peer
// vanishing between frames is a clean io.EOF, vanishing mid-frame is an
// unexpected-EOF error, never a zero frame.
func TestReadFrameEOFSemantics(t *testing.T) {
	// Clean close between frames.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	// Vanished inside the header.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: err = %v, want unexpected EOF", err)
	}
	// Vanished inside the payload.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 10, '{'})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload: err = %v, want unexpected EOF", err)
	}
}

// TestClientPeerVanishesMidFrame kills the server side after writing half
// a frame: the client must observe the dead connection, close its pending
// requests and delivery channels, and fail subsequent operations with
// ErrClientClosed rather than hanging.
func TestClientPeerVanishesMidFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Answer the subscribe so the client registers a delivery channel.
		f, err := ReadFrame(conn)
		if err == nil && f.Type == FramePing { // Dial's handshake
			f, err = ReadFrame(conn)
		}
		if err != nil || f.Type != FrameSubscribe {
			conn.Close()
			return
		}
		WriteFrame(conn, &Frame{Type: FrameOK, SubscriptionID: "s1"})
		// Start a delivery frame but vanish mid-payload.
		conn.Write([]byte{0, 0, 1, 0, '{', '"'})
		conn.Close()
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, deliveries, err := c.Subscribe(parkingSub(), false)
	if err != nil {
		t.Fatal(err)
	}
	<-served

	select {
	case _, open := <-deliveries:
		if open {
			t.Error("received a delivery from a truncated frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery channel not closed after peer vanished mid-frame")
	}
	if err := c.Publish(parkingEvent("p1")); !errors.Is(err, ErrClientClosed) {
		t.Errorf("publish after mid-frame disconnect: err = %v, want ErrClientClosed", err)
	}
}
