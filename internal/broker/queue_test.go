package broker

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"thematicep/internal/event"
)

// eventIDs returns the event IDs of ds in order.
func eventIDs(ds []Delivery) []string {
	var ids []string
	for _, d := range ds {
		ids = append(ids, d.Event.ID)
	}
	return ids
}

func publishIDs(t *testing.T, b *Broker, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := b.Publish(idEvent(id)); err != nil {
			t.Fatal(err)
		}
	}
}

// A ring that wraps before it fills keeps queue order through its growth:
// a Take leaves the head mid-ring, the next deliveries fill it across its
// end, and the one after doubles it — then it doubles again from head 0.
func TestQueueKeepsOrderAcrossGrowth(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0))
	defer b.Close()
	s, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	publishIDs(t, b, "a", "b", "c")
	if got, _ := s.Take(nil); fmt.Sprint(eventIDs(got)) != "[a b c]" {
		t.Fatalf("first take = %v, want [a b c]", eventIDs(got))
	}
	if s.q.head == 0 {
		t.Fatal("the take left the head at 0: nothing below wraps")
	}
	var want []string
	for i := 0; i < 3*ringStart; i++ {
		id := fmt.Sprintf("e%d", i)
		publishIDs(t, b, id)
		want = append(want, id)
	}
	got, open := s.Take(nil)
	if fmt.Sprint(eventIDs(got)) != fmt.Sprint(want) || !open {
		t.Errorf("take = %v (open %v), want %v (open)", eventIDs(got), open, want)
	}
	if n := len(s.q.buf); n != 4*ringStart {
		t.Errorf("ring holds %d slots after %d queued, want %d", n, len(want), 4*ringStart)
	}
	if st := b.Stats(); st.Dropped != 0 {
		t.Errorf("Dropped = %d below the queue size", st.Dropped)
	}
}

// At the queue size the oldest delivery goes, whether the overflow arrives
// one publish at a time or inside one batch: the newest remain, in order,
// and every eviction is counted.
func TestQueueDropsOldestAtLimit(t *testing.T) {
	const extra = 3
	for _, size := range []int{1, 4, 64} {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("size=%d/batched=%v", size, batched), func(t *testing.T) {
				b := New(exactMatcher(), WithReplayBuffer(0), WithQueueSize(size))
				defer b.Close()
				s, err := b.Subscribe(parkingSub())
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				var events []*event.Event
				for i := 0; i < size+extra; i++ {
					id := fmt.Sprintf("e%d", i)
					want = append(want, id)
					events = append(events, idEvent(id))
				}
				if batched {
					if err := b.PublishBatch(events); err != nil {
						t.Fatal(err)
					}
				} else {
					publishIDs(t, b, want...)
				}
				got, _ := s.Take(nil)
				if fmt.Sprint(eventIDs(got)) != fmt.Sprint(want[extra:]) {
					t.Errorf("take = %v, want the newest %d: %v", eventIDs(got), size, want[extra:])
				}
				if st := b.Stats(); st.Dropped != extra || st.Delivered != uint64(size+extra) {
					t.Errorf("Dropped %d Delivered %d, want %d %d", st.Dropped, st.Delivered, extra, size+extra)
				}
				if n := len(s.q.buf); n != size {
					t.Errorf("ring holds %d slots, queue size is %d", n, size)
				}
			})
		}
	}
}

// Closing keeps what was queued: Take hands it out together with
// open == false, and after that nothing; offers are refused.
func TestQueueTakeAfterClose(t *testing.T) {
	for _, by := range []string{"unsubscribe", "broker close"} {
		t.Run(by, func(t *testing.T) {
			b := New(exactMatcher(), WithReplayBuffer(0))
			defer b.Close()
			s, err := b.Subscribe(parkingSub())
			if err != nil {
				t.Fatal(err)
			}
			publishIDs(t, b, "a", "b")
			if by == "unsubscribe" {
				s.Close()
			} else {
				b.Close()
			}
			got, open := s.Take(nil)
			if fmt.Sprint(eventIDs(got)) != "[a b]" || open {
				t.Errorf("take after close = %v (open %v), want [a b] (closed)", eventIDs(got), open)
			}
			if got, open := s.Take(got[:0]); len(got) != 0 || open {
				t.Errorf("second take = %v (open %v), want nothing (closed)", eventIDs(got), open)
			}
			if s.Offer(Delivery{Event: idEvent("late"), SubscriptionID: s.ID(), Score: 1}) {
				t.Error("a closed queue accepted an offer")
			}
		})
	}
}

// A consumer parked on the hook wakes when the subscription closes, takes
// what is left and sees the end — however the subscription is closed.
func TestQueueCloseWakesConsumer(t *testing.T) {
	for _, by := range []string{"unsubscribe", "broker close", "drain"} {
		t.Run(by, func(t *testing.T) {
			b := New(exactMatcher(), WithReplayBuffer(0))
			defer b.Close()
			s, err := b.Subscribe(parkingSub())
			if err != nil {
				t.Fatal(err)
			}
			wake := make(chan struct{}, 1)
			s.SetNotify(func() {
				select {
				case wake <- struct{}{}:
				default:
				}
			})
			done := make(chan []string)
			go func() {
				var seen []string
				for open := true; open; {
					<-wake
					var got []Delivery
					got, open = s.Take(nil)
					seen = append(seen, eventIDs(got)...)
				}
				done <- seen
			}()
			publishIDs(t, b, "a")
			switch by {
			case "unsubscribe":
				s.Close()
			case "broker close":
				b.Close()
			case "drain":
				// The consumer keeps up, so Drain flushes and then closes.
				if err := b.Drain(t.Context()); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case seen := <-done:
				if fmt.Sprint(seen) != "[a]" {
					t.Errorf("consumer saw %v, want [a]", seen)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("consumer still parked on the hook after the subscription closed")
			}
		})
	}
}

// SetNotify fires at once when there is something to take — a queued
// delivery or a close — and not for an idle open queue.
func TestQueueSetNotifyFiresAtOnce(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0))
	defer b.Close()
	subscribe := func() *Subscriber {
		t.Helper()
		s, err := b.Subscribe(parkingSub())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fired := func(s *Subscriber) bool {
		n := 0
		s.SetNotify(func() { n++ })
		return n == 1
	}

	if fired(subscribe()) {
		t.Error("hook fired on installation over an idle queue")
	}
	pending := subscribe()
	publishIDs(t, b, "a")
	if !fired(pending) {
		t.Error("hook did not fire at installation over a non-empty queue")
	}
	closed := subscribe()
	closed.Close()
	if !fired(closed) {
		t.Error("hook did not fire at installation over a closed queue")
	}
}

// A subscription that never receives anything holds no queue: 10,000 cost
// their Subscriber, ID and map slot. With a 64-slot channel each they held
// 49.9 MB.
func TestIdleSubscriptionsHoldNoQueue(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0))
	defer b.Close()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	const subs = 10000
	sub := parkingSub()
	for i := 0; i < subs; i++ {
		if _, err := b.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := b.Publish(&event.Event{Tuples: []event.Tuple{{Attr: "type", Value: "energy event"}}}); err != nil {
			t.Fatal(err)
		}
	}
	grew := float64(int64(heap()-before)) / (1 << 20)
	if st := b.Stats(); st.Scanned == 0 || st.Matched != 0 {
		t.Fatalf("Scanned %d Matched %d: the subscriptions must be scanned and never match", st.Scanned, st.Matched)
	}
	t.Logf("%d idle subscriptions hold %.1f MB of heap", subs, grew)
	if grew >= 8 {
		t.Errorf("%d idle subscriptions hold %.1f MB of heap, want under 8", subs, grew)
	}
}
