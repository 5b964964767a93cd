package query

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// A query is served like a subscription: registering one, in process or
// over the wire, starts no goroutine. The connection's one delivery writer
// carries every query's detections.
func TestQueriesStartNoGoroutine(t *testing.T) {
	const n = 1000
	b := broker.New(exactMatcher())
	defer b.Close()
	before := runtime.NumGoroutine()

	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	for i := 0; i < n; i++ {
		if _, err := e.Register(countSpec(fmt.Sprintf("local-%d", i), time.Minute, 3)); err != nil {
			t.Fatal(err)
		}
	}

	srv := broker.NewServer(b)
	srv.SetQueryRegistrar(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := broker.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var streams []<-chan broker.QueryDetection
	for i := 0; i < n; i++ {
		_, ch, err := c.Query(countSpec(fmt.Sprintf("wire-%d", i), time.Minute, 1))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, ch)
	}

	// Every wire query fires on one publish, and its detection arrives
	// through the writer the test's goroutine count includes.
	if err := b.Publish(typedEvent("", "spike")); err != nil {
		t.Fatal(err)
	}
	for i, ch := range streams {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("wire-%d: no detection", i)
		}
	}
	// Listener, connection, client reader and delivery writer: four.
	added := runtime.NumGoroutine() - before
	if added >= 10 {
		t.Fatalf("%d queries added %d goroutines, want fewer than 10", 2*n, added)
	}
	t.Logf("%d queries added %d goroutines", 2*n, added)
}

// The feed is observed inside the publish: when Publish returns, every
// window the event feeds has seen it and every detection it fired is
// queued — for each of several racing publishers.
func TestFeedObservedInsidePublish(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	q, err := e.Register(countSpec("sync", time.Hour, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := b.Publish(typedEvent("", "spike")); err != nil {
			t.Fatal(err)
		}
		if got := fed(e, "sync"); got != uint64(i) {
			t.Fatalf("after publish %d returned: fed = %d", i, got)
		}
	}

	// Racing publishers, each with its own once-firing query: a publisher's
	// detection is queued before its Publish returns.
	const publishers = 4
	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		name := fmt.Sprintf("own-%d", p)
		own, err := e.Register(&broker.QuerySpec{
			Name:         name,
			Kind:         KindCount,
			Subscription: &event.Subscription{Theme: []string{"energy"}, Predicates: []event.Predicate{{Attr: "type", Value: name}}},
			Window:       time.Hour,
			MinExpected:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := b.Publish(typedEvent("", "spike")); err != nil {
					errs <- err
					return
				}
			}
			if err := b.Publish(typedEvent("", name)); err != nil {
				errs <- err
				return
			}
			if dets, _ := own.Take(nil); len(dets) != 1 {
				errs <- fmt.Errorf("%s: %d detections queued when its publish returned, want 1", name, len(dets))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := fed(e, "sync"), uint64(50+publishers*25); got != want {
		t.Errorf("fed = %d after every publish returned, want %d", got, want)
	}
	if dets, _ := q.Take(nil); len(dets) != 0 {
		t.Errorf("sync query fired %d times below its threshold", len(dets))
	}
}
