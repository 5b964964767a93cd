package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
)

// exactMatcher is a deterministic test matcher: score 1 on exact match.
func exactMatcher() Matcher {
	return MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
}

func parkingEvent(spot string) *event.Event {
	return &event.Event{
		Theme: []string{"land transport"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: "parking event"},
			{Attr: "spot", Value: spot},
		},
	}
}

func parkingSub() *event.Subscription {
	return &event.Subscription{
		Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
	}
}

// stream pumps h's queue into a channel, so a test reads deliveries one at a
// time: the hook wakes the pump, Take empties the queue, and the channel
// closes once the subscription has closed and everything it queued has been
// received. Call it once per handle: it owns the handle's hook.
func stream(h SubHandle) <-chan Delivery {
	out := make(chan Delivery)
	wake := make(chan struct{}, 1)
	h.SetNotify(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	go func() {
		defer close(out)
		var batch []Delivery
		for open := true; open; {
			<-wake
			batch, open = h.Take(batch[:0])
			for _, d := range batch {
				out <- d
			}
		}
	}()
	return out
}

func recvDelivery(t *testing.T, ch <-chan Delivery) Delivery {
	t.Helper()
	select {
	case d, ok := <-ch:
		if !ok {
			t.Fatal("delivery channel closed")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return Delivery{}
	}
}

func TestPublishDeliversToMatchingSubscriber(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()

	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.Subscribe(&event.Subscription{
		Predicates: []event.Predicate{{Attr: "type", Value: "energy event"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := b.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, stream(sub))
	if d.Score != 1 || d.Event.Tuples[1].Value != "p1" {
		t.Errorf("delivery = %+v", d)
	}
	if got, _ := other.Take(nil); len(got) != 0 {
		t.Errorf("non-matching subscriber got %+v", got)
	}

	stats := b.Stats()
	if stats.Published != 1 || stats.Matched != 1 || stats.Delivered != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	if _, err := b.Subscribe(&event.Subscription{}); err == nil {
		t.Error("empty subscription accepted")
	}
}

func TestDuplicateSubscriptionID(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	s := parkingSub()
	s.ID = "dup"
	if _, err := b.Subscribe(s); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(s); !errors.Is(err, ErrDuplicateSub) {
		t.Errorf("err = %v, want ErrDuplicateSub", err)
	}
}

func TestPublishValidation(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	if err := b.Publish(nil); !errors.Is(err, ErrNilEvent) {
		t.Errorf("nil event: %v", err)
	}
	if err := b.Publish(&event.Event{}); err == nil {
		t.Error("invalid event accepted")
	}
}

func TestTimeDecouplingReplay(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()

	// Publish before anyone subscribes.
	for i := 0; i < 3; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := b.Subscribe(parkingSub(), WithReplay(true))
	if err != nil {
		t.Fatal(err)
	}
	deliveries := stream(sub)
	for i := 0; i < 3; i++ {
		d := recvDelivery(t, deliveries)
		if !d.Replayed {
			t.Errorf("delivery %d not marked replayed", i)
		}
		if want := fmt.Sprintf("p%d", i); d.Event.Tuples[1].Value != want {
			t.Errorf("replay order: got %q, want %q", d.Event.Tuples[1].Value, want)
		}
	}
	// Live events follow.
	if err := b.Publish(parkingEvent("live")); err != nil {
		t.Fatal(err)
	}
	if d := recvDelivery(t, deliveries); d.Replayed || d.Event.Tuples[1].Value != "live" {
		t.Errorf("live delivery = %+v", d)
	}
}

func TestReplayBufferBounded(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(2))
	defer b.Close()
	for i := 0; i < 5; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := b.Subscribe(parkingSub(), WithReplay(true))
	if err != nil {
		t.Fatal(err)
	}
	// Only the last 2 events are retained.
	deliveries := stream(sub)
	if d := recvDelivery(t, deliveries); d.Event.Tuples[1].Value != "p3" {
		t.Errorf("first replay = %q, want p3", d.Event.Tuples[1].Value)
	}
	if d := recvDelivery(t, deliveries); d.Event.Tuples[1].Value != "p4" {
		t.Errorf("second replay = %q, want p4", d.Event.Tuples[1].Value)
	}
}

func TestSynchronizationDecouplingDropOldest(t *testing.T) {
	b := New(exactMatcher(), WithQueueSize(2), WithReplayBuffer(0))
	defer b.Close()
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	// Publish more than the queue holds without consuming: Publish must not
	// block, and the oldest deliveries are dropped.
	for i := 0; i < 5; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().Dropped; got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if d := recvDelivery(t, stream(sub)); d.Event.Tuples[1].Value != "p3" {
		t.Errorf("first queued = %q, want p3 (oldest dropped)", d.Event.Tuples[1].Value)
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if _, open := sub.Take(nil); open {
		t.Error("subscription still open after unsubscribe")
	}
	// Publishing after unsubscribe must not panic or deliver.
	if err := b.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Subscribers; got != 0 {
		t.Errorf("subscribers = %d", got)
	}
}

func TestBrokerClose(t *testing.T) {
	b := New(exactMatcher())
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, open := sub.Take(nil); open {
		t.Error("subscription still open after broker close")
	}
	if err := b.Publish(parkingEvent("p1")); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close: %v", err)
	}
	if _, err := b.Subscribe(parkingSub()); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close: %v", err)
	}
	b.Close() // idempotent
}

func TestThresholdFiltersWeakMatches(t *testing.T) {
	weak := MatchFunc(func(s *event.Subscription, e *event.Event) float64 { return 0.04 })
	b := New(weak, WithThreshold(0.05))
	defer b.Close()
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Take(nil); len(got) != 0 {
		t.Errorf("weak match delivered: %+v", got)
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()

	var wg sync.WaitGroup
	const publishers, events = 4, 50
	subs := make([]*Subscriber, 3)
	for i := range subs {
		s, err := b.Subscribe(parkingSub(), WithReplay(false))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	received := make([]int, len(subs))
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			for range stream(s) {
				received[i]++
			}
		}(i, s)
	}
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < events; i++ {
				if err := b.Publish(parkingEvent(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()
	// Give queues a moment to drain, then close to end the range loops.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := b.Stats()
		if st.Delivered+st.Dropped >= uint64(publishers*events*len(subs)) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Close()
	wg.Wait()

	st := b.Stats()
	if st.Published != publishers*events {
		t.Errorf("published = %d, want %d", st.Published, publishers*events)
	}
	total := 0
	for _, n := range received {
		total += n
	}
	// Delivered counts enqueued deliveries; Dropped counts the subset later
	// evicted by the drop-oldest policy, so consumers see the difference.
	if uint64(total) != st.Delivered-st.Dropped || total == 0 {
		t.Errorf("received %d, stats %+v", total, st)
	}
}
