package broker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
)

// TestDrainFlushesSubscriberQueues: deliveries queued before Drain reach a
// live (if slow) subscriber before the broker closes, and Drain refuses
// new publishes immediately.
func TestDrainFlushesSubscriberQueues(t *testing.T) {
	b := New(exactMatcher())
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Slow consumer: the queue is still full when Drain begins.
	got := make(chan int, 1)
	go func() {
		count := 0
		for range stream(sub) {
			count++
			time.Sleep(time.Millisecond)
		}
		got <- count
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v, want nil (flushed)", err)
	}
	if err := b.Publish(parkingEvent("late")); !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
		t.Errorf("publish after drain: err = %v, want ErrDraining or ErrClosed", err)
	}
	if count := <-got; count != n {
		t.Errorf("consumer received %d deliveries, want %d (drain must flush the queue)", count, n)
	}
}

// TestDrainTimeout: a subscriber that never reads pins its queue, so Drain
// must give up at the deadline, close the broker anyway, and report the
// context error.
func TestDrainTimeout(t *testing.T) {
	b := New(exactMatcher())
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("stuck")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := b.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Drain took %v, deadline did not bound it", elapsed)
	}
	// The broker is closed regardless: the stuck subscriber's queue must
	// end (handing out the queued delivery first, then closing).
	deliveries := stream(sub)
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-deliveries:
		case <-deadline:
			t.Fatal("subscriber queue still open after drain timeout")
		}
	}
}

// TestDrainInFlightPublish: Drain must wait for a Publish already past
// admission before declaring the queues flushed — deliveries from
// in-flight publishes count.
func TestDrainInFlightPublish(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	slow := MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		once.Do(func() { <-release })
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
	b := New(slow, WithMatchParallelism(1))
	sub, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}

	published := make(chan error, 1)
	go func() { published <- b.Publish(parkingEvent("inflight")) }()
	// Wait until the publish is inside the matcher, then start draining.
	waitUntil(t, "publish in flight", func() bool { return b.inflight.Load() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- b.Drain(ctx)
	}()

	// The drain cannot finish while the publish is blocked in matching.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight publish finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-published; err != nil {
		t.Fatalf("in-flight publish: %v", err)
	}
	// Consume so the flush can complete.
	go func() {
		for range stream(sub) {
		}
	}()
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

// TestCloseDrainRaceConcurrentPublishSubscribe is the satellite lifecycle
// check: Close and Drain racing a storm of concurrent Publish and
// Subscribe calls must not panic, deadlock, or leak goroutines.
func TestCloseDrainRaceConcurrentPublishSubscribe(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		b := New(exactMatcher())
		var wg sync.WaitGroup
		stop := make(chan struct{})

		for w := 0; w < 4; w++ {
			wg.Add(2)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := b.Publish(parkingEvent(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						return
					}
				}
			}(w)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s, err := b.Subscribe(parkingSub())
					if err != nil {
						return
					}
					// Drain a few deliveries, then drop the handle —
					// subscribers die at every lifecycle stage.
					for i := 0; i < 3; i++ {
						if taken, _ := s.Take(nil); len(taken) == 0 {
							time.Sleep(time.Millisecond)
						}
					}
					s.Close()
				}
			}()
		}

		time.Sleep(20 * time.Millisecond)
		var race sync.WaitGroup
		race.Add(2)
		go func() {
			defer race.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			b.Drain(ctx)
		}()
		go func() {
			defer race.Done()
			b.Close()
		}()
		race.Wait()
		close(stop)
		wg.Wait()
	}

	// No goroutine leak: everything spawned above must wind down. GC
	// pressure and test runner goroutines wobble the count, so allow slack
	// and retry before declaring a leak.
	waitUntil(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+8
	})
}

// TestShedWatermark: with shedding configured and the match pipeline
// saturated by slow concurrent publishes, excess publishes are rejected
// with ErrOverloaded and counted — never silently dropped.
func TestShedWatermark(t *testing.T) {
	slow := MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		time.Sleep(2 * time.Millisecond)
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
	b := New(slow, WithMatchParallelism(2), WithShedWatermark(1), WithQueueSize(1024))
	defer b.Close()
	// Enough subscriptions that dispatch wants helper workers, keeping the
	// broker-wide semaphore saturated while publishes overlap.
	for i := 0; i < 8; i++ {
		if _, err := b.Subscribe(parkingSub()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var shedSeen sync.Once
	sawErr := make(chan struct{}, 1)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := b.Publish(parkingEvent(fmt.Sprintf("w%d-%d", w, i)))
				if errors.Is(err, ErrOverloaded) {
					shedSeen.Do(func() { sawErr <- struct{}{} })
				} else if err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := b.Stats()
	select {
	case <-sawErr:
	default:
		t.Fatalf("no publish returned ErrOverloaded (shed=%d published=%d)", st.Shed, st.Published)
	}
	if st.Shed == 0 {
		t.Error("Stats.Shed = 0 after observed ErrOverloaded")
	}
	if st.Shed+st.Published != 8*50 {
		t.Errorf("shed (%d) + published (%d) != %d attempts: a publish went missing",
			st.Shed, st.Published, 8*50)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
