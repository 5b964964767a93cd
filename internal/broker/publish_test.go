package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/workload"
)

// countingEngine wraps the real matcher and counts the calls the broker
// makes through the Engine seam. Calls the matcher makes on itself (Score
// prepares its own arguments) are not routed through the wrapper, so the
// counters see exactly the broker's calls.
type countingEngine struct {
	*matcher.Matcher
	subPrepares, evPrepares, rawScores atomic.Int64
	sweeps, swept                      atomic.Int64 // ScoreBatchInArena calls and the candidates they held

	// gate, when non-nil, holds the first gateN PrepareEventInBatch calls
	// until gateN of them have arrived — each inside a publish that already
	// owns a publish buffer and a batch context.
	gate    *sync.WaitGroup
	gateN   int64
	entered atomic.Int64
}

func (c *countingEngine) Score(s *event.Subscription, e *event.Event) float64 {
	c.rawScores.Add(1)
	return c.Matcher.Score(s, e)
}

func (c *countingEngine) PrepareSubscription(s *event.Subscription) *matcher.PreparedSubscription {
	c.subPrepares.Add(1)
	return c.Matcher.PrepareSubscription(s)
}

func (c *countingEngine) PrepareEventInBatch(eb *matcher.EventBatch, e *event.Event) *matcher.PreparedEvent {
	c.evPrepares.Add(1)
	if c.gate != nil && c.entered.Add(1) <= c.gateN {
		c.gate.Done()
		c.gate.Wait()
	}
	return c.Matcher.PrepareEventInBatch(eb, e)
}

func (c *countingEngine) ScoreBatchInArena(a *matcher.BatchArena, subs []*matcher.PreparedSubscription, pe *matcher.PreparedEvent, out []float64) []float64 {
	c.sweeps.Add(1)
	c.swept.Add(int64(len(subs)))
	return c.Matcher.ScoreBatchInArena(a, subs, pe, out)
}

// TestOneSweepPerEvent checks that an event is the unit of parallel
// scoring: however wide its candidate set and however many workers the
// broker may use, one worker sweeps all of an event's candidates through
// its arena in one call.
func TestOneSweepPerEvent(t *testing.T) {
	m := &countingEngine{Matcher: thematicMatcher(t)}
	b := New(m, WithMatchParallelism(4), WithQueueSize(16), WithReplayBuffer(0))
	defer b.Close()
	const nSubs, nBatch = 600, 7
	for i := 0; i < nSubs; i++ {
		if _, err := b.Subscribe(parkingSub()); err != nil {
			t.Fatal(err)
		}
	}

	if err := b.Publish(parkingEvent("p")); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Scanned != nSubs {
		t.Fatalf("scanned %d candidates, want %d", st.Scanned, nSubs)
	}
	if n, k := m.sweeps.Load(), m.swept.Load(); n != 1 || k != nSubs {
		t.Errorf("Publish made %d sweeps over %d candidates, want 1 over %d", n, k, nSubs)
	}

	batch := make([]*event.Event, nBatch)
	for i := range batch {
		batch[i] = parkingEvent(fmt.Sprintf("b%d", i))
	}
	if err := b.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n, k := m.sweeps.Load()-1, m.swept.Load()-nSubs; n != nBatch || k != nBatch*nSubs {
		t.Errorf("PublishBatch of %d made %d sweeps over %d candidates, want %d over %d", nBatch, n, k, nBatch, nBatch*nSubs)
	}
}

// TestEnginePreparesOnce checks the prepare-once contract of the fast
// seam: each subscription is prepared exactly once at Subscribe time, each
// event exactly once per publish (serial or batched), and the raw Score is
// never consulted on the publish path. Replay at Subscribe time is off
// that path and goes through Score, the reference scorer — once per
// backlog event, without preparing the subscription a second time.
func TestEnginePreparesOnce(t *testing.T) {
	m := &countingEngine{Matcher: thematicMatcher(t)}
	b := New(m, WithMatchParallelism(4))
	defer b.Close()

	const nSubs, nEvents, nBatch = 3, 10, 5
	for i := 0; i < nSubs; i++ {
		if _, err := b.Subscribe(parkingSub()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nEvents; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]*event.Event, nBatch)
	for i := range batch {
		batch[i] = parkingEvent(fmt.Sprintf("b%d", i))
	}
	if err := b.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n := m.subPrepares.Load(); n != nSubs {
		t.Errorf("subscription prepares = %d, want %d", n, nSubs)
	}
	if n := m.evPrepares.Load(); n != nEvents+nBatch {
		t.Errorf("event prepares = %d, want %d", n, nEvents+nBatch)
	}
	if n := m.rawScores.Load(); n != 0 {
		t.Errorf("raw Score called %d times on the publish path", n)
	}
	if st := b.Stats(); st.Matched != nSubs*(nEvents+nBatch) {
		t.Errorf("matched = %d, want %d", st.Matched, nSubs*(nEvents+nBatch))
	}

	s, err := b.Subscribe(parkingSub(), WithReplay(true))
	if err != nil {
		t.Fatal(err)
	}
	deliveries := stream(s)
	for i := 0; i < nEvents+nBatch; i++ {
		if d := recvDelivery(t, deliveries); !d.Replayed || d.Score != 1 {
			t.Errorf("replay delivery %d = %+v", i, d)
		}
	}
	if n := m.subPrepares.Load(); n != nSubs+1 {
		t.Errorf("subscription prepares after a replaying subscribe = %d, want %d", n, nSubs+1)
	}
	if n := m.rawScores.Load(); n != nEvents+nBatch {
		t.Errorf("replay scored %d backlog events through Score, want %d", n, nEvents+nBatch)
	}
}

// zeroAllocBroker is a warm single-worker broker over a scale-tier
// population, with its event stream.
func zeroAllocBroker(t *testing.T, opts ...Option) (*Broker, []*event.Event) {
	t.Helper()
	w := workload.GenerateScale(workload.ScaleConfig{
		Seed: 7, Subscriptions: 300, Events: 32, Attrs: 32, ValuesPerAttr: 16,
		MaxPredicates: 3, EventTuples: 6, Themes: 4, ExactFraction: 0.8, Zipf: 1.2,
	})
	b := New(thematicMatcher(t), append([]Option{WithMatchParallelism(1), WithQueueSize(16)}, opts...)...)
	t.Cleanup(b.Close)
	for _, s := range w.Subs {
		if _, err := b.Subscribe(s); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	// Warm interners, memos, free lists, map buckets, the replay ring — and
	// the subscriber queues: nothing reads them, so each matched one grows to
	// its 16 slots, two deliveries per pass.
	for i := 0; i < 8; i++ {
		for _, e := range w.Events {
			if err := b.Publish(e); err != nil {
				t.Fatalf("warmup publish: %v", err)
			}
		}
		if err := b.PublishBatch(w.Events); err != nil {
			t.Fatalf("warmup publish batch: %v", err)
		}
	}
	if st := b.Stats(); st.Matched == 0 {
		t.Fatal("workload produced no matches; the gate is vacuous")
	}
	return b, w.Events
}

// TestPublishZeroAlloc gates the warm serial Publish at zero allocations:
// a batch of one lives in the publish buffer, is prepared through the
// recycled batch context and scored through a recycled arena, so it
// inherits the batched path's property (replay ring included).
func TestPublishZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: allocation counts are not meaningful under the race detector")
	}
	b, events := zeroAllocBroker(t)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if err := b.Publish(events[i%len(events)]); err != nil {
			t.Fatalf("publish: %v", err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("warm Publish: %v allocs/op, want 0", allocs)
	}
}

// TestUnsampledTraceZeroAlloc is the regression gate for trace work on the
// unsampled path: with tracing enabled but this publish not sampled,
// neither entry point allocates — the batch member list is built only
// once a trace was actually started.
func TestUnsampledTraceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: allocation counts are not meaningful under the race detector")
	}
	b, events := zeroAllocBroker(t, WithReplayBuffer(0), WithTraceSampling(1<<30))
	if len(b.Tracer().Recent()) != 1 {
		t.Fatal("warm-up did not consume the one sampled publish")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := b.PublishBatch(events); err != nil {
			t.Fatalf("publish batch: %v", err)
		}
		if err := b.Publish(events[0]); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("unsampled traced publishes: %v allocs/op, want 0", allocs)
	}
}

// TestConcurrentPublishBeyondFreeLists runs 16 publishers at once and
// holds every one of them inside its first publish — after it took a
// publish buffer and a batch context — until all 16 are there. That is
// four times what the two free lists hold, so most publishers run on
// freshly allocated state; the delivery set must still be exactly the
// full-scan oracle's, and under -race no context may be shared.
func TestConcurrentPublishBeyondFreeLists(t *testing.T) {
	const publishers = 16
	subs, events := mixedThemeWorkload(t, 5)
	per := len(events) / publishers
	if per == 0 {
		t.Fatalf("only %d events for %d publishers", len(events), publishers)
	}
	events = events[:per*publishers]

	var gate sync.WaitGroup
	gate.Add(publishers)
	m := &countingEngine{Matcher: thematicMatcher(t), gate: &gate, gateN: publishers}
	b := New(m, WithQueueSize(len(events)+1), WithReplayBuffer(0), WithMatchParallelism(2))
	handles := make([]*Subscriber, len(subs))
	for i, s := range subs {
		h, err := b.Subscribe(s)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		handles[i] = h
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(evs []*event.Event) {
			defer wg.Done()
			for _, e := range evs {
				if err := b.Publish(e); err != nil {
					t.Errorf("publish %q: %v", e.ID, err)
				}
			}
		}(events[p*per : (p+1)*per])
	}
	wg.Wait()
	b.Close()

	type key struct {
		sub, ev string
		score   float64
	}
	got := make(map[key]int)
	for _, h := range handles {
		for d := range stream(h) {
			got[key{d.SubscriptionID, d.Event.ID, d.Score}]++
		}
	}
	want := 0
	for _, s := range subs {
		for _, e := range events {
			if sc := m.Matcher.Score(s, e); sc >= 0.05 && sc > 0 {
				want++
				if got[key{s.ID, e.ID, sc}] != 1 {
					t.Errorf("delivery (%s, %s, %v) seen %d times, want 1", s.ID, e.ID, sc, got[key{s.ID, e.ID, sc}])
				}
			}
		}
	}
	if len(got) != want {
		t.Errorf("%d distinct deliveries, oracle has %d", len(got), want)
	}
	if want == 0 {
		t.Fatal("workload produced no deliveries; the check is vacuous")
	}
}

// pausingClock blocks the pause-th reading after arm until release is
// closed, signalling reached when it gets there; every other reading
// returns at once.
type pausingClock struct {
	reads            atomic.Int64
	pause            int64
	reached, release chan struct{}
}

func (c *pausingClock) arm(pause int64) {
	c.reads.Store(0)
	c.pause = pause
}

func (c *pausingClock) Now() time.Time {
	if c.reads.Add(1) == c.pause {
		close(c.reached)
		<-c.release
	}
	return time.Unix(0, 0)
}

// A publish matches exactly the subscriptions registered before it was
// admitted. A replaying subscription that registers between the publish's
// ingest (the replay-ring append, under the broker lock) and its
// enumeration gets the event once, from its backlog, and is not also
// enumerated live.
func TestPublishRegistrationCut(t *testing.T) {
	clk := &pausingClock{reached: make(chan struct{}), release: make(chan struct{})}
	b := New(thematicMatcher(t), WithClock(clk), WithReplayBuffer(8), WithMatchParallelism(1))
	defer b.Close()
	early, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}

	// A publish reads the clock at its start, after compile and after
	// ingest: it pauses at the third reading, with the broker lock released.
	clk.arm(3)
	done := make(chan error, 1)
	go func() { done <- b.Publish(parkingEvent("p1")) }()
	<-clk.reached
	late, err := b.Subscribe(parkingSub(), WithReplay(true))
	if err != nil {
		t.Fatal(err)
	}
	close(clk.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, _ := early.Take(nil)
	if len(got) != 1 || got[0].Replayed {
		t.Errorf("early subscription got %+v, want one live delivery", got)
	}
	got, _ = late.Take(nil)
	if len(got) != 1 || !got[0].Replayed {
		t.Errorf("late subscription got %d deliveries %+v, want one replayed delivery", len(got), got)
	}
	if st := b.Stats(); st.Scanned != 1 || st.Pruned != 1 {
		t.Errorf("scanned %d, pruned %d; want 1, 1 (the late registration counts as pruned)", st.Scanned, st.Pruned)
	}
}

// The worker that takes an event off the cursor enumerates it then, not
// ahead of the batch: a subscription removed while event 0 is being scored
// is a candidate for event 0 but not for event 1. One worker reads the
// clock after enumerating and after scoring each event, so the fifth
// reading (after start, compile and ingest) ends event 0's scoring.
func TestBatchEventEnumeratedWhenTaken(t *testing.T) {
	clk := &pausingClock{reached: make(chan struct{}), release: make(chan struct{})}
	b := New(thematicMatcher(t), WithClock(clk), WithReplayBuffer(0), WithMatchParallelism(1))
	defer b.Close()
	keep, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	gone, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}

	clk.arm(5)
	done := make(chan error, 1)
	go func() { done <- b.PublishBatch([]*event.Event{parkingEvent("e0"), parkingEvent("e1")}) }()
	<-clk.reached
	gone.Close()
	close(clk.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got, _ := keep.Take(nil); len(got) != 2 {
		t.Errorf("kept subscription got %d deliveries, want 2", len(got))
	}
	if got, _ := gone.Take(nil); len(got) != 0 {
		t.Errorf("removed subscription got %+v, want nothing", got)
	}
	if st := b.Stats(); st.Scanned != 3 || st.Matched != 3 || st.Delivered != 2 {
		t.Errorf("scanned %d, matched %d, delivered %d; want 3, 3, 2 (event 1 enumerated after the removal)",
			st.Scanned, st.Matched, st.Delivered)
	}
}

// A registration number never wraps. A subscription stays before every
// later registration cut however many registrations follow it (2^31 + 1 of
// them would put a wrapping 32-bit stamp after the cut), numbers carry
// past 2^32 into their high bits, and Subscribe fails rather than hand out
// a number past maxRegistrations.
func TestRegistrationNumbersDoNotWrap(t *testing.T) {
	b := New(thematicMatcher(t), WithMatchParallelism(1))
	defer b.Close()
	first, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	subs := []*Subscriber{first}
	publish := func(id string) {
		t.Helper()
		if err := b.Publish(parkingEvent(id)); err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			if got, _ := s.Take(nil); len(got) != 1 || got[0].Replayed {
				t.Errorf("%s: subscription %d got %+v, want one live delivery", id, s.registration(), got)
			}
		}
	}
	for i, regs := range []uint64{first.registration() + 1<<31 + 1, 1<<32 - 1, maxRegistrations - 1} {
		b.mu.Lock()
		b.regs = regs
		b.mu.Unlock()
		s, err := b.Subscribe(parkingSub())
		if err != nil {
			t.Fatal(err)
		}
		if s.registration() != regs+1 {
			t.Errorf("registration %d, want %d", s.registration(), regs+1)
		}
		subs = append(subs, s)
		publish(fmt.Sprintf("p%d", i))
	}
	if _, err := b.Subscribe(parkingSub()); err == nil {
		t.Error("Subscribe past maxRegistrations succeeded")
	}
	publish("last")
}
