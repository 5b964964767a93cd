package query

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

// exactMatcher scores 1 on exact predicate match, 0 otherwise.
func exactMatcher() broker.Matcher {
	return broker.MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
}

func typedEvent(id, typ string) *event.Event {
	return &event.Event{
		ID:    id,
		Theme: []string{"energy"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: typ},
		},
	}
}

func typedSub(typ string) *event.Subscription {
	return &event.Subscription{
		Theme:      []string{"energy"},
		Predicates: []event.Predicate{{Attr: "type", Value: typ}},
	}
}

func countSpec(name string, window time.Duration, min float64) *broker.QuerySpec {
	return &broker.QuerySpec{
		Name:         name,
		Kind:         KindCount,
		Subscription: typedSub("spike"),
		Window:       window,
		MinExpected:  min,
		Steps:        []broker.QueryStep{{Attr: "type", Value: "spike"}},
	}
}

// takeOne returns the one detection q holds now. A detection fired by a
// publish or a flush is queued before that call returns, so there is
// nothing to wait for.
func takeOne(t *testing.T, q *Query) broker.QueryDetection {
	t.Helper()
	dets, open := q.Take(nil)
	if !open || len(dets) != 1 {
		t.Fatalf("queued detections = %+v (open %v), want exactly one", dets, open)
	}
	return dets[0]
}

// awaitDetection waits on q's notify hook for a detection fired off every
// caller's path, by the flush ticker.
func awaitDetection(t *testing.T, q *Query) broker.QueryDetection {
	t.Helper()
	woke := make(chan struct{}, 1)
	q.SetNotify(func() {
		select {
		case woke <- struct{}{}:
		default:
		}
	})
	timeout := time.After(5 * time.Second)
	for {
		if dets, _ := q.Take(nil); len(dets) > 0 {
			return dets[0]
		}
		select {
		case <-woke:
		case <-timeout:
			t.Fatal("timed out waiting for detection")
		}
	}
}

func TestCountQueryDetectsBurst(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()

	q, err := e.Register(countSpec("burst", time.Minute, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Publish(typedEvent("", "spike")); err != nil {
			t.Fatal(err)
		}
	}
	d := takeOne(t, q)
	if d.Query != "burst" || len(d.Events) != 3 || d.Probability != 1 {
		t.Errorf("detection = %+v", d)
	}
	st := e.Stats()
	if len(st) != 1 || st[0].Detections != 1 || st[0].Fed != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st[0].Occupancy != 3 {
		t.Errorf("occupancy = %d, want 3", st[0].Occupancy)
	}
}

func TestQueryOverWireEndToEnd(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	ln := listenLocal(t)
	srv := broker.NewServer(b, broker.WithQueryRegistrar(e))
	srv.Serve(ln)
	addr := ln.Addr()
	defer srv.Close()

	c, err := broker.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	name, detections, err := c.Query(countSpec("wire-burst", time.Minute, 2))
	if err != nil {
		t.Fatal(err)
	}
	if name != "wire-burst" {
		t.Fatalf("name = %q", name)
	}
	// Duplicate names are rejected across the wire.
	if _, _, err := c.Query(countSpec("wire-burst", time.Minute, 2)); err == nil {
		t.Fatal("duplicate query accepted")
	}

	for i := 0; i < 2; i++ {
		if err := c.Publish(typedEvent("", "spike")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-detections:
		if d.Query != "wire-burst" || len(d.Events) != 2 {
			t.Errorf("detection = %+v", d)
		}
		if d.At.IsZero() {
			t.Error("detection At not carried over the wire")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for wire detection")
	}

	if err := c.UnregisterQuery("wire-burst"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Get("wire-burst"); ok {
		t.Error("query still registered after UnregisterQuery")
	}
	// The name is free again.
	if _, _, err := c.Query(countSpec("wire-burst", time.Minute, 2)); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestConnTeardownClosesQueries(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	ln := listenLocal(t)
	srv := broker.NewServer(b, broker.WithQueryRegistrar(e))
	srv.Serve(ln)
	addr := ln.Addr()
	defer srv.Close()

	c, err := broker.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(countSpec("ephemeral", time.Minute, 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := e.Get("ephemeral"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query survived connection teardown")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNegationFiresOnQuietStreamViaFlush(t *testing.T) {
	clk := telemetry.NewManual(t0)
	b := broker.New(exactMatcher(), broker.WithClock(clk))
	defer b.Close()
	e := New(b, WithClock(clk), WithFlushInterval(-1))
	defer e.Close()

	q, err := e.Register(&broker.QuerySpec{
		Name:         "no-shutdown",
		Kind:         KindNegation,
		Subscription: typedSub("overload"),
		Window:       time.Minute,
		Steps: []broker.QueryStep{
			{Attr: "type", Value: "overload"},
			{Attr: "type", Value: "shutdown"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(typedEvent("e1", "overload")); err != nil {
		t.Fatal(err)
	}
	if n := fed(e, "no-shutdown"); n != 1 {
		t.Fatalf("fed = %d after the trigger's publish returned, want 1", n)
	}
	// Quiet stream: nothing else arrives. Advancing the clock past the
	// window and flushing emits the absence detection.
	if n := e.FlushExpired(); n != 0 {
		t.Fatalf("premature flush emissions: %d", n)
	}
	clk.Advance(2 * time.Minute)
	if n := e.FlushExpired(); n != 1 {
		t.Fatalf("flush emissions = %d, want 1", n)
	}
	d := takeOne(t, q)
	if d.Query != "no-shutdown" || len(d.Events) != 1 {
		t.Errorf("detection = %+v", d)
	}
}

func TestDetectionSLOObservesLatency(t *testing.T) {
	clk := telemetry.NewManual(t0)
	slo := telemetry.NewSLO("detection", 0.99, 10*time.Millisecond,
		telemetry.WithSLOClock(clk), telemetry.WithSLOWindow(time.Hour))
	b := broker.New(exactMatcher(), broker.WithClock(clk))
	defer b.Close()
	e := New(b, WithClock(clk), WithFlushInterval(-1), WithDetectionSLO(slo))
	defer e.Close()

	// A count query fires on the publish carrying its newest constituent:
	// zero manual time between admission and detection, a good observation.
	q, err := e.Register(countSpec("slo-burst", time.Minute, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Publish(typedEvent("", "spike")); err != nil {
			t.Fatal(err)
		}
	}
	takeOne(t, q)
	if good, bad := sloWindow(t, slo); good != 1 || bad != 0 {
		t.Fatalf("after inline detection: good %d bad %d, want 1/0", good, bad)
	}

	// An absence detection on a quiet stream is emitted two minutes after
	// its trigger's admission — far past the 10ms threshold, a bad one.
	nq, err := e.Register(&broker.QuerySpec{
		Name:         "slo-quiet",
		Kind:         KindNegation,
		Subscription: typedSub("overload"),
		Window:       time.Minute,
		Steps: []broker.QueryStep{
			{Attr: "type", Value: "overload"},
			{Attr: "type", Value: "shutdown"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(typedEvent("e1", "overload")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if n := e.FlushExpired(); n != 1 {
		t.Fatalf("flush emissions = %d, want 1", n)
	}
	takeOne(t, nq)
	if good, bad := sloWindow(t, slo); good != 1 || bad != 1 {
		t.Fatalf("after late detection: good %d bad %d, want 1/1", good, bad)
	}
	if slo.BurnRate(slo.LongWindow()) <= 1 {
		t.Errorf("burn rate = %g, want > 1 with half the window bad", slo.BurnRate(slo.LongWindow()))
	}
}

func fed(e *Engine, name string) uint64 {
	for _, st := range e.Stats() {
		if st.Name == name {
			return st.Fed
		}
	}
	return 0
}

// sloWindow reads the SLO's window counters back through its exposition.
func sloWindow(t *testing.T, s *telemetry.SLO) (good, bad uint64) {
	t.Helper()
	var sb strings.Builder
	s.WriteMetrics(telemetry.NewExpo(&sb))
	fams, err := telemetry.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, smp := range f.Samples {
			switch f.Name {
			case "thematicep_slo_window_good":
				good = uint64(smp.Value)
			case "thematicep_slo_window_bad":
				bad = uint64(smp.Value)
			}
		}
	}
	return good, bad
}

func TestTickerDrivesQuietStreamEmissions(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	// Real clock, short window, fast ticker: no events after the trigger,
	// the ticker alone must fire the negation.
	e := New(b, WithFlushInterval(10*time.Millisecond))
	defer e.Close()

	q, err := e.Register(&broker.QuerySpec{
		Name:         "quiet",
		Kind:         KindNegation,
		Subscription: typedSub("overload"),
		Window:       30 * time.Millisecond,
		Steps: []broker.QueryStep{
			{Attr: "type", Value: "overload"},
			{Attr: "type", Value: "shutdown"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(typedEvent("e1", "overload")); err != nil {
		t.Fatal(err)
	}
	d := awaitDetection(t, q)
	if d.Query != "quiet" {
		t.Errorf("detection = %+v", d)
	}
}

func TestDrainFlushesPendingWindows(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	b.OnDrain(e.Drain)

	q, err := e.Register(&broker.QuerySpec{
		Name:         "pending",
		Kind:         KindNegation,
		Subscription: typedSub("overload"),
		Window:       time.Hour, // far beyond the test's lifetime
		Steps: []broker.QueryStep{
			{Attr: "type", Value: "overload"},
			{Attr: "type", Value: "shutdown"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(typedEvent("e1", "overload")); err != nil {
		t.Fatal(err)
	}

	// Drain must force the hour-long window closed and emit the pending
	// absence before shutdown completes.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	d := takeOne(t, q)
	if d.Query != "pending" || len(d.Events) != 1 {
		t.Errorf("detection = %+v", d)
	}
}

// stubBackend hands the test direct control of the feed's queue.
type stubBackend struct {
	mu   sync.Mutex
	subs []*stubSub
}

type stubSub struct {
	id string

	mu     sync.Mutex
	queue  []broker.Delivery
	closed bool
	notify func()
}

func (s *stubSub) ID() string { return s.id }
func (s *stubSub) Take(dst []broker.Delivery) ([]broker.Delivery, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, s.queue...)
	s.queue = s.queue[:0]
	return dst, !s.closed
}
func (s *stubSub) SetNotify(fn func()) {
	s.mu.Lock()
	s.notify = fn
	pending := s.closed || len(s.queue) > 0
	s.mu.Unlock()
	if pending {
		fn()
	}
}
func (s *stubSub) Close() {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	fn := s.notify
	s.mu.Unlock()
	if !was && fn != nil {
		fn()
	}
}

// push enqueues d and fires the hook, as the broker does.
func (s *stubSub) push(d broker.Delivery) {
	s.mu.Lock()
	s.queue = append(s.queue, d)
	fn := s.notify
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (b *stubBackend) PublishBatch(events []*event.Event) error { return nil }

func (b *stubBackend) SubscribeHandle(sub *event.Subscription, opts ...broker.SubscribeOption) (broker.SubHandle, error) {
	s := &stubSub{id: "stub"}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s, nil
}

func TestEngineDedupsEventIDs(t *testing.T) {
	be := &stubBackend{}
	e := New(be, WithFlushInterval(-1))
	defer e.Close()

	if _, err := e.Register(countSpec("dedup", time.Minute, 10)); err != nil {
		t.Fatal(err)
	}
	sub := be.subs[0]
	ev := typedEvent("dup-1", "spike")
	for i := 0; i < 3; i++ {
		sub.push(broker.Delivery{Event: ev, SubscriptionID: "stub", Score: 1, At: t0})
	}
	sub.push(broker.Delivery{Event: typedEvent("other", "spike"), SubscriptionID: "stub", Score: 1, At: t0})

	if st := e.Stats()[0]; st.Fed != 2 || st.Deduped != 2 {
		t.Fatalf("fed = %d, deduped = %d; want 2, 2", st.Fed, st.Deduped)
	}
}

func TestRegisterValidation(t *testing.T) {
	be := &stubBackend{}
	e := New(be, WithFlushInterval(-1))
	defer e.Close()

	cases := []*broker.QuerySpec{
		nil,
		{Kind: KindCount, Window: time.Minute, Subscription: typedSub("x")},                                           // no name
		{Name: "w", Kind: KindCount, Subscription: typedSub("x")},                                                     // no window
		{Name: "s", Kind: KindCount, Window: time.Minute},                                                             // no subscription
		{Name: "k", Kind: "bogus", Window: time.Minute, Subscription: typedSub("x")},                                  // bad kind
		{Name: "n", Kind: KindNegation, Window: time.Minute, Subscription: typedSub("x")},                             // negation arity
		{Name: "q", Kind: KindSequence, Window: time.Minute, Subscription: typedSub("x")},                             // empty sequence
		{Name: "e", Kind: KindCount, Window: time.Minute, Subscription: typedSub("x"), Steps: []broker.QueryStep{{}}}, // empty attr
	}
	for i, spec := range cases {
		if _, err := e.Register(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}

	if _, err := e.Register(countSpec("dup", time.Minute, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(countSpec("dup", time.Minute, 1)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestMetricsExposition(t *testing.T) {
	b := broker.New(exactMatcher())
	defer b.Close()
	e := New(b, WithFlushInterval(-1))
	defer e.Close()
	if _, err := e.Register(countSpec("expo", time.Minute, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b.Publish(typedEvent("", "spike"))
	}

	var sb strings.Builder
	expo := telemetry.NewExpo(&sb)
	e.WriteMetrics(expo)
	out := sb.String()
	for _, want := range []string{
		`thematicep_query_active 1`,
		`thematicep_query_detections_total{query="expo"} 1`,
		`thematicep_query_events_total{query="expo"} 2`,
		`thematicep_query_window_events{query="expo"} 2`,
		"thematicep_query_detect_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
}

func BenchmarkQueryObserve(b *testing.B) {
	be := &stubBackend{}
	e := New(be, WithFlushInterval(-1))
	defer e.Close()
	q, err := e.Register(countSpec("bench", time.Minute, 1e12))
	if err != nil {
		b.Fatal(err)
	}
	// Non-matching type: the pattern evicts and recomputes but never
	// accumulates, so the benchmark measures the steady observe path.
	ev := typedEvent("", "other")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.observe(broker.Delivery{Event: ev, SubscriptionID: "stub", Score: 1, At: t0})
	}
}
