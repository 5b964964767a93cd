// Brokernet: the full middleware stack over TCP. A broker daemon embeds the
// thematic matcher; a consumer subscribes over the network (with replay for
// time decoupling); producers publish heterogeneous events from separate
// connections (space decoupling) without blocking on consumers
// (synchronization decoupling).
//
// Run with: go run ./examples/brokernet
package main

import (
	"fmt"
	"log"
	"net"

	"thematicep/internal/broker"
	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Broker side: the thematic matcher is the broker's matching engine.
	space := semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	m := matcher.New(space)
	// *matcher.Matcher is a broker.Engine: the broker compiles each
	// subscription once and each event once per publish instead of per
	// (event, subscription) pair, and scores each event's candidates in
	// columnar sweeps whose interned terms and similarity rows carry over
	// from publish to publish.
	b := broker.New(m, broker.WithThreshold(0.2))
	defer b.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := broker.NewServer(b)
	srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr()
	fmt.Println("broker listening on", addr)

	theme := []string{"land transport", "urban mobility"}

	// A producer publishes BEFORE the consumer exists: time decoupling.
	early, err := broker.Dial(addr.String())
	if err != nil {
		return err
	}
	defer early.Close()
	if err := early.Publish(&event.Event{
		ID: "early-parking", Theme: theme,
		Tuples: []event.Tuple{
			{Attr: "type", Value: "decreased parking event"},
			{Attr: "street", Value: "eyre square"},
		},
	}); err != nil {
		return err
	}

	// Consumer connects later and asks for replay.
	consumer, err := broker.Dial(addr.String())
	if err != nil {
		return err
	}
	defer consumer.Close()
	sub := &event.Subscription{
		Theme: []string{"land transport", "road traffic"},
		Predicates: []event.Predicate{
			{Attr: "type", Value: "decreased garage spot event", ApproxValue: true},
		},
	}
	id, deliveries, err := consumer.Subscribe(sub, true /* replay */)
	if err != nil {
		return err
	}
	fmt.Println("subscribed as", id, "->", sub)

	// A second producer publishes live events with yet another vocabulary.
	producer, err := broker.Dial(addr.String())
	if err != nil {
		return err
	}
	defer producer.Close()
	live := []*event.Event{
		{ID: "live-parking", Theme: theme, Tuples: []event.Tuple{
			{Attr: "type", Value: "decreased car park event"},
			{Attr: "street", Value: "quay street"},
		}},
		{ID: "live-noise", Theme: theme, Tuples: []event.Tuple{
			{Attr: "type", Value: "increased noise event"},
			{Attr: "street", Value: "quay street"},
		}},
	}
	for _, e := range live {
		if err := producer.Publish(e); err != nil {
			return err
		}
	}

	// The subscriber receives the replayed event and the matching live one;
	// the noise event scores below threshold.
	fmt.Println("deliveries:")
	for i := 0; i < 2; i++ {
		d := <-deliveries
		kind := "live"
		if d.Replayed {
			kind = "replayed"
		}
		fmt.Printf("  [%s] %s score=%.3f\n", kind, d.Event.ID, d.Score)
	}
	st := b.Stats()
	fmt.Printf("broker stats: published=%d matched=%d delivered=%d dropped=%d\n",
		st.Published, st.Matched, st.Delivered, st.Dropped)
	return nil
}
