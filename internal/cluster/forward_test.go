package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// fakePeer is a raw listener standing in for a peer shard: it accepts one
// link, checks that it opens with hello, and hands every forward frame it
// reads to the returned channel.
func fakePeer(t *testing.T) (addr string, forwards <-chan *broker.Frame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan *broker.Frame, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := broker.NewFrameReader(conn)
		for first := true; ; first = false {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			switch {
			case first && f.Type != broker.FrameHello:
				t.Errorf("link opened with %q, want hello", f.Type)
				return
			case f.Type == broker.FrameHello, f.Type == broker.FramePing:
			default:
				ch <- f
			}
		}
	}()
	return ln.Addr().String(), ch
}

func recvFrame(t *testing.T, ch <-chan *broker.Frame) *broker.Frame {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a forward")
	}
	panic("unreachable")
}

// ownedTag finds a theme tag that owner holds on r.
func ownedTag(t *testing.T, r *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if tag := fmt.Sprintf("theme-%d", i); r.Owner(tag) == owner {
			return tag
		}
	}
	t.Fatalf("no tag owned by %q in 5000 candidates", owner)
	return ""
}

func eventsIDs(evs []*event.Event) []string {
	ids := make([]string, len(evs))
	for i, e := range evs {
		ids[i] = e.ID
	}
	return ids
}

// A sampled Publish crosses the hop as a forwardb frame carrying exactly
// the event and the trace context its local publish opened.
func TestPublishForwardsAsOneEventBatch(t *testing.T) {
	addr, forwards := fakePeer(t)
	n, b := edgeNode(t, Config{Seeds: []string{addr}}, broker.WithTraceSampling(1))
	n.Start()
	e := edgeEvent("fwd-1")
	e.Theme = []string{ownedTag(t, n.Ring(), addr)}
	if err := n.Publish(e); err != nil {
		t.Fatal(err)
	}
	f := recvFrame(t, forwards)
	if f.Type != broker.FrameForwardBatch || fmt.Sprint(eventsIDs(f.Events)) != "[fwd-1]" {
		t.Fatalf("forward = %q carrying %v, want forwardb carrying [fwd-1]", f.Type, eventsIDs(f.Events))
	}
	tc, ok := b.Tracer().ContextFor(e.ID)
	if !ok {
		t.Fatal("the local publish was not sampled")
	}
	if f.Trace == nil || *f.Trace != tc {
		t.Errorf("forward trace context = %+v, want %+v", f.Trace, tc)
	}
}

// A queued forward owns its events: a caller reusing its slice once
// PublishBatch has returned does not change what the peer receives.
func TestPublishBatchForwardOwnsItsSlice(t *testing.T) {
	addr, forwards := fakePeer(t)
	n, _ := edgeNode(t, Config{Seeds: []string{addr}})
	tag := ownedTag(t, n.Ring(), addr)
	ev := func(id string) *event.Event {
		e := edgeEvent(id)
		e.Theme = []string{tag}
		return e
	}
	// The link is not started, so both forwards wait in the queue while
	// the caller overwrites its slices.
	batch := []*event.Event{ev("a"), ev("b")}
	if err := n.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	batch[0], batch[1] = ev("x"), ev("y")
	one := []*event.Event{ev("c")}
	if err := n.PublishBatch(one); err != nil {
		t.Fatal(err)
	}
	one[0] = ev("z")
	n.Start()
	for _, want := range []string{"[a b]", "[c]"} {
		if got := fmt.Sprint(eventsIDs(recvFrame(t, forwards).Events)); got != want {
			t.Errorf("peer received %s, want %s", got, want)
		}
	}
}

// A ring member whose link is not open yet (the window between the ring
// swap and the link reconcile in applyMembership) still accounts for every
// forward: each (event, remote owner) pair is forwarded or shed.
func TestForwardWithoutLinkIsShed(t *testing.T) {
	linked, unlinked := "127.0.0.1:2", "127.0.0.1:3"
	n, _ := edgeNode(t, Config{Seeds: []string{linked, unlinked}})
	n.pmu.Lock()
	delete(n.peers, unlinked)
	n.pmu.Unlock()

	ring := n.Ring()
	tagL, tagU, tagS := ownedTag(t, ring, linked), ownedTag(t, ring, unlinked), ownedTag(t, ring, n.ID())
	ev := func(id string, theme ...string) *event.Event {
		e := edgeEvent(id)
		e.Theme = theme
		return e
	}
	remote := func(evs ...*event.Event) (sum uint64) {
		for _, e := range evs {
			for _, o := range ring.Owners(e.Theme) {
				if o != n.ID() {
					sum++
				}
			}
		}
		return sum
	}
	var want uint64
	for _, e := range []*event.Event{ev("1", tagU), ev("2", tagL, tagU), ev("3", tagS)} {
		if err := n.Publish(e); err != nil {
			t.Fatal(err)
		}
		want += remote(e)
	}
	batch := []*event.Event{ev("4", tagU), ev("5", tagL), ev("6", tagL, tagU, tagS), ev("7", tagS)}
	if err := n.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	want += remote(batch...)

	st := n.Stats()
	if got := st.Forwarded + st.ForwardsShed; got != want {
		t.Errorf("Forwarded %d + ForwardsShed %d = %d, want %d remote owners", st.Forwarded, st.ForwardsShed, got, want)
	}
	if st.ForwardsShed != 4 {
		t.Errorf("ForwardsShed = %d, want the 4 forwards toward %s", st.ForwardsShed, unlinked)
	}
}

// A warm one-event forward to one remote owner costs the same few
// allocations through either entry point: Publish is a batch of one, and
// grouping a batch of one by owner allocates nothing.
func TestForwardOneEventAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: allocation counts are not meaningful under the race detector")
	}
	const owner = "127.0.0.1:2"
	n, _ := edgeNode(t, Config{Seeds: []string{owner}}) // link never started
	e := edgeEvent("alloc-1")
	e.Theme = []string{ownedTag(t, n.Ring(), owner)}
	one := []*event.Event{e}
	for name, publish := range map[string]func() error{
		"Publish":      func() error { return n.Publish(e) },
		"PublishBatch": func() error { return n.PublishBatch(one) },
	} {
		for i := 0; i < 10; i++ {
			if err := publish(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := publish(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/op", name, allocs)
		if allocs > 11 {
			t.Errorf("warm one-event %s: %v allocs/op, want <= 11", name, allocs)
		}
	}
}
