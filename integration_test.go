package thematicep_test

// End-to-end integration: synthetic corpus -> index -> parametric space ->
// thematic matcher -> TCP broker -> deliveries -> complex event processing.
// This is the full stack of the paper exercised as one system.

import (
	"net"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cep"
	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	// Substrate and matcher.
	space := semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	m := matcher.New(space)

	// Broker over TCP, on the prepared fast path with a worker pool.
	b := broker.New(m,
		broker.WithThreshold(0.52), broker.WithMatchParallelism(4))
	defer b.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := broker.NewServer(b)
	srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr()

	// Consumer with a thematic approximate subscription.
	consumer, err := broker.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	sub := &event.Subscription{
		Theme: []string{"energy consumption monitoring", "energy policy"},
		Predicates: []event.Predicate{
			{Attr: "type", Value: "increased energy consumption event", ApproxValue: true},
		},
	}
	_, deliveries, err := consumer.Subscribe(sub, false)
	if err != nil {
		t.Fatal(err)
	}

	// Producer publishes heterogeneous events; two match semantically, one
	// must not.
	producer, err := broker.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	theme := []string{"energy consumption monitoring", "power generation"}
	events := []*event.Event{
		{ID: "e1", Theme: theme, Tuples: []event.Tuple{
			{Attr: "type", Value: "increased electricity consumption event"},
			{Attr: "device", Value: "server rack"},
		}},
		{ID: "noise", Theme: theme, Tuples: []event.Tuple{
			{Attr: "type", Value: "decreased rainfall event"},
			{Attr: "sensor", Value: "rain gauge"},
		}},
		{ID: "e2", Theme: theme, Tuples: []event.Tuple{
			{Attr: "type", Value: "increased power consumption event"},
			{Attr: "device", Value: "air conditioner"},
		}},
	}
	for _, e := range events {
		if err := producer.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	// Collect the two matching deliveries and feed them to CEP: two
	// increased-consumption events within a window form a complex event.
	pattern := cep.NewSequence(time.Minute, 0,
		func(*event.Event) bool { return true },
		func(*event.Event) bool { return true },
	)
	var detections []cep.Detection
	now := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)
	gotIDs := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case d := <-deliveries:
			gotIDs[d.Event.ID] = true
			detections = append(detections, pattern.Observe(cep.UncertainEvent{
				Event:       d.Event,
				Probability: d.Score,
				At:          now.Add(time.Duration(i) * time.Second),
			})...)
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out; got %v", gotIDs)
		}
	}
	if !gotIDs["e1"] || !gotIDs["e2"] {
		t.Fatalf("wrong deliveries: %v", gotIDs)
	}
	if gotIDs["noise"] {
		t.Fatal("noise event delivered")
	}
	if len(detections) != 1 {
		t.Fatalf("complex detections = %d, want 1", len(detections))
	}
	if p := detections[0].Probability; p <= 0 || p > 1 {
		t.Fatalf("detection probability = %v", p)
	}

	// No extra deliveries pending.
	select {
	case d := <-deliveries:
		t.Fatalf("unexpected extra delivery: %s", d.Event.ID)
	case <-time.After(100 * time.Millisecond):
	}

	st := b.Stats()
	if st.Published != 3 || st.Matched != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEndToEndSubscriptionLanguage drives the same pipeline through the
// textual subscription/event notation, as cmd/themctl does.
func TestEndToEndSubscriptionLanguage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	space := semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	m := matcher.New(space)
	b := broker.New(m, broker.WithThreshold(0.2))
	defer b.Close()

	sub, err := event.ParseSubscription(
		"({land transport, road traffic}, {type = decreased garage spot event~})")
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := event.ParseEvent(
		"({land transport, urban mobility}, {type: decreased car park event, street: quay street})")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ev); err != nil {
		t.Fatal(err)
	}
	// Publish returns once the delivery is queued.
	taken, _ := s.Take(nil)
	if len(taken) != 1 {
		t.Fatalf("%d deliveries, want 1", len(taken))
	}
	if d := taken[0]; d.Score <= 0.2 {
		t.Errorf("score = %v", d.Score)
	}
}
