package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/workload"
)

// TestPublishBatchValidation: admission is all-or-nothing, and the
// batched path enforces exactly Event.Validate's invariants (through the
// interner, not a per-event map).
func TestPublishBatchValidation(t *testing.T) {
	b := New(thematicMatcher(t), WithReplayBuffer(0))
	defer b.Close()
	good := &event.Event{ID: "ok", Tuples: []event.Tuple{{Attr: "type", Value: "car"}}}

	cases := []struct {
		name string
		evs  []*event.Event
		want error
	}{
		{"nil event", []*event.Event{good, nil}, ErrNilEvent},
		{"no tuples", []*event.Event{good, {ID: "empty"}}, event.ErrNoTuples},
		{"duplicate canonical attr", []*event.Event{good, {ID: "dup", Tuples: []event.Tuple{
			{Attr: "Room", Value: "a"}, {Attr: "room", Value: "b"}}}}, event.ErrDuplicateAttr},
		{"empty term", []*event.Event{good, {ID: "blank", Tuples: []event.Tuple{
			{Attr: "  ", Value: "x"}}}}, event.ErrEmptyTerm},
	}
	for _, tc := range cases {
		if err := b.PublishBatch(tc.evs); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if st := b.Stats(); st.Published != 0 || st.Batches != 0 {
		t.Errorf("rejected batches were partially admitted: %+v", st)
	}
	if err := b.PublishBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := b.PublishBatch([]*event.Event{good}); err != nil {
		t.Errorf("valid batch: %v", err)
	}
	if st := b.Stats(); st.Published != 1 || st.Batches != 1 {
		t.Errorf("valid batch not counted: %+v", st)
	}
}

// TestPublishBatchChurn races PublishBatch against concurrent Subscribe,
// Unsubscribe, and a final Drain — the batched path must stay data-race
// free and the counters consistent when the subscription set shifts under
// a running batch. (Delivery sets are necessarily nondeterministic here;
// determinism is covered by the quiescent equivalence tests.)
func TestPublishBatchChurn(t *testing.T) {
	subs, events := mixedThemeWorkload(t, 7)
	b := New(thematicMatcher(t), WithReplayBuffer(0), WithMatchParallelism(4), WithQueueSize(8))

	var consumers sync.WaitGroup
	for _, s := range subs[:len(subs)/2] {
		h, err := b.Subscribe(s)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		consumers.Add(1)
		go func() { // keep queues draining so Drain can quiesce
			defer consumers.Done()
			for range stream(h) {
			}
		}()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churner: subscribe / consume a little / unsubscribe
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := *subs[len(subs)/2+i%(len(subs)/2)]
			s.ID = fmt.Sprintf("churn-%d", i)
			h, err := b.Subscribe(&s)
			if err != nil {
				continue
			}
			h.Take(nil)
			h.Close()
			i++
		}
	}()
	go func() { // publisher: batched publishes until stopped
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.PublishBatch(events[:min(16, len(events))]); err != nil &&
				!errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
				t.Errorf("publish batch: %v", err)
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Mid-batch Drain: start a batch, drain concurrently; the admitted
	// batch must complete (Drain waits on inflight) and later batches must
	// bounce.
	done := make(chan error, 1)
	go func() { done <- b.PublishBatch(events) }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
		t.Errorf("in-flight batch: %v", err)
	}
	if err := b.PublishBatch(events[:1]); !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
		t.Errorf("post-drain batch admitted: %v", err)
	}
	st := b.Stats()
	if st.Delivered > st.Matched {
		t.Errorf("delivered %d exceeds matched %d", st.Delivered, st.Matched)
	}
	b.Close()
	consumers.Wait()
}

// TestPublishBatchZeroAlloc gates the warm batched publish path at zero
// allocations per batch: interners, arenas, candidate buffers, hit lists,
// and grouping chains are all pooled, so a steady stream of batches over a
// stable vocabulary allocates nothing at any batch size.
func TestPublishBatchZeroAlloc(t *testing.T) {
	w := workload.GenerateScale(workload.ScaleConfig{
		Seed: 7, Subscriptions: 300, Events: 32, Attrs: 32, ValuesPerAttr: 16,
		MaxPredicates: 3, EventTuples: 6, Themes: 4, ExactFraction: 0.8, Zipf: 1.2,
	})
	b := New(thematicMatcher(t),
		WithReplayBuffer(0), WithMatchParallelism(1), WithQueueSize(16))
	defer b.Close()
	for _, s := range w.Subs {
		if _, err := b.Subscribe(s); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	// Warm interners, memos, pools, map buckets — and the subscriber queues:
	// nothing reads them, so each matched one grows to its 16 slots, one
	// delivery per pass.
	for i := 0; i < 16; i++ {
		if err := b.PublishBatch(w.Events); err != nil {
			t.Fatalf("warmup publish: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := b.PublishBatch(w.Events); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("warm PublishBatch: %v allocs/op, want 0", allocs)
	}
	if st := b.Stats(); st.Matched == 0 {
		t.Fatal("workload produced no matches; the gate is vacuous")
	}
}

// BenchmarkBrokerPublishBatch measures end-to-end batched publishing
// against the serial Publish loop over the same scale-tier population.
func BenchmarkBrokerPublishBatch(b *testing.B) {
	w := workload.GenerateScale(workload.ScaleConfig{
		Seed: 7, Subscriptions: 2000, Events: 64, Attrs: 64, ValuesPerAttr: 32,
		MaxPredicates: 4, EventTuples: 8, Themes: 6, ExactFraction: 0.8,
		ApproxOnlyFraction: 0.01, Zipf: 1.2,
	})
	newBroker := func() *Broker {
		br := New(thematicMatcher(b), WithReplayBuffer(0), WithQueueSize(1))
		for _, s := range w.Subs {
			if _, err := br.Subscribe(s); err != nil {
				b.Fatalf("subscribe: %v", err)
			}
		}
		return br
	}
	b.Run("serial", func(b *testing.B) {
		br := newBroker()
		defer br.Close()
		for _, e := range w.Events {
			_ = br.Publish(e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range w.Events {
				_ = br.Publish(e)
			}
		}
		b.ReportMetric(float64(b.N*len(w.Events))/b.Elapsed().Seconds(), "ev/s")
	})
	b.Run("batched", func(b *testing.B) {
		br := newBroker()
		defer br.Close()
		_ = br.PublishBatch(w.Events)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = br.PublishBatch(w.Events)
		}
		b.ReportMetric(float64(b.N*len(w.Events))/b.Elapsed().Seconds(), "ev/s")
	})
}
