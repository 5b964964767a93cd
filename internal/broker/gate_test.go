package broker

import (
	"fmt"
	"testing"
	"unsafe"

	"thematicep/internal/event"
	"thematicep/internal/workload"
)

func idEvent(id string) *event.Event {
	e := parkingEvent(id)
	e.ID = id
	return e
}

// The gate is shown every delivery bound for the queue — replay backlog,
// pipeline matches (serial and batched) and Offer — in queue order and
// under the queue lock; what it refuses is neither enqueued nor counted.
func TestGateSeesEveryDeliveryInQueueOrder(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(8))
	defer b.Close()
	for _, id := range []string{"r1", "r2"} {
		if err := b.Publish(idEvent(id)); err != nil {
			t.Fatal(err)
		}
	}

	var s *Subscriber // nil while Subscribe replays the backlog
	var saw []string
	refuse := map[string]bool{"r2": true, "p2": true, "o2": true}
	s, err := b.Subscribe(parkingSub(), WithReplay(true), Gate(func(e *event.Event) bool {
		if s != nil && s.mu.TryLock() {
			s.mu.Unlock()
			t.Errorf("gate called for %s without the queue lock", e.ID)
		}
		saw = append(saw, e.ID)
		return !refuse[e.ID]
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishBatch([]*event.Event{idEvent("p1"), idEvent("p2"), idEvent("p3")}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"o1", "o2"} {
		if got, want := s.Offer(Delivery{Event: idEvent(id), SubscriptionID: s.ID(), Score: 1}), !refuse[id]; got != want {
			t.Errorf("Offer(%s) = %v, want %v", id, got, want)
		}
	}
	if err := b.Publish(idEvent("p4")); err != nil {
		t.Fatal(err)
	}

	if want := "[r1 r2 p1 p2 p3 o1 o2 p4]"; fmt.Sprint(saw) != want {
		t.Errorf("gate saw %v, want %s", saw, want)
	}
	var queued []string
	taken, _ := s.Take(nil)
	for _, d := range taken {
		queued = append(queued, d.Event.ID)
	}
	if want := "[r1 p1 p3 o1 p4]"; fmt.Sprint(queued) != want {
		t.Errorf("queue = %v, want %s", queued, want)
	}
	// r1 replayed + p1, p3, p4 matched here; offers are the caller's to count.
	if st := b.Stats(); st.Delivered != 4 || st.Matched != 4 || st.Dropped != 0 {
		t.Errorf("Delivered %d Matched %d Dropped %d, want 4 4 0", st.Delivered, st.Matched, st.Dropped)
	}
}

// A gate costs the warm publish paths no allocation (it takes the event
// pointer; a *Delivery would escape), and Subscriber stays in the 80-byte
// size class the scoring loop walks.
func TestGatedPublishZeroAlloc(t *testing.T) {
	if size := unsafe.Sizeof(Subscriber{}); size > 80 {
		t.Errorf("Subscriber is %d bytes, want at most 80", size)
	}
	if raceEnabled {
		t.Skip("race mode: allocation counts are not meaningful under the race detector")
	}
	w := workload.GenerateScale(workload.ScaleConfig{
		Seed: 7, Subscriptions: 300, Events: 32, Attrs: 32, ValuesPerAttr: 16,
		MaxPredicates: 3, EventTuples: 6, Themes: 4, ExactFraction: 0.8, Zipf: 1.2,
	})
	b := New(thematicMatcher(t), WithMatchParallelism(1), WithQueueSize(16))
	defer b.Close()
	gated := 0
	for _, s := range w.Subs {
		if _, err := b.Subscribe(s, Gate(func(*event.Event) bool { gated++; return true })); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	publish := func() {
		if err := b.PublishBatch(w.Events); err != nil {
			t.Fatalf("publish batch: %v", err)
		}
		for _, e := range w.Events {
			if err := b.Publish(e); err != nil {
				t.Fatalf("publish: %v", err)
			}
		}
	}
	// Warm interners, memos, free lists, map buckets, the replay ring — and
	// the subscriber queues: nothing reads them, so each matched one grows to
	// its 16 slots, two deliveries per pass.
	for i := 0; i < 8; i++ {
		publish()
	}
	if allocs := testing.AllocsPerRun(20, publish); allocs != 0 {
		t.Errorf("warm gated Publish + PublishBatch: %v allocs/op, want 0", allocs)
	}
	if gated == 0 {
		t.Fatal("no delivery reached a gate; the test is vacuous")
	}
}
