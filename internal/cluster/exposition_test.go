package cluster_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/telemetry"
)

// TestFullStackExpositionLints scrapes the complete /metrics surface a real
// deployment exposes — broker pipeline histograms, subindex occupancy,
// semantics cache counters, and cluster forward gauges on one page — and
// validates it against the exposition-format invariants end to end, the way
// cmd/thematicd wires it (broker + node + space collectors on one handler).
func TestFullStackExpositionLints(t *testing.T) {
	space := semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	m := matcher.New(space)
	b := broker.New(m,
		broker.WithThreshold(0.1),
		broker.WithTraceSampling(1),
	)
	ln := listen(t, "127.0.0.1:0")
	addr := ln.Addr()
	// A second plain broker gives the first a live peer, so the per-peer
	// forward gauges have a series to emit.
	peerB := broker.New(exactMatcher())
	peerLn := listen(t, "127.0.0.1:0")
	peerAddr := peerLn.Addr()
	node, err := cluster.New(b, cluster.Config{
		Self:         addr.String(),
		Seeds:        []string{peerAddr.String()},
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := broker.NewServer(b, broker.WithBackend(node))
	srv.Serve(ln)
	peerNode, err := cluster.New(peerB, cluster.Config{
		Self:         peerAddr.String(),
		Seeds:        []string{addr.String()},
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := broker.NewServer(peerB, broker.WithBackend(peerNode))
	peerSrv.Serve(peerLn)
	node.Start()
	peerNode.Start()
	t.Cleanup(func() {
		peerNode.Close()
		peerSrv.Close()
		peerB.Close()
		node.Close()
		srv.Close()
		b.Close()
	})

	sub, err := event.ParseSubscription(
		"({energy}, {type = increased energy usage event~, device~ = laptop~})")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	ev, err := event.ParseEvent(
		"({energy}, {type: increased energy consumption event, device: computer})")
	if err != nil {
		t.Fatal(err)
	}
	ev.ID = "expo-ev-1"
	if err := b.Publish(ev); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	broker.MetricsHandler(b, node, space).ServeHTTP(rec,
		httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Body)
	out := string(body)

	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("full exposition fails lint: %v\n%s", err, out)
	}

	families, err := telemetry.ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	latency := 0
	for _, f := range families {
		if f.Type == "histogram" && strings.HasSuffix(f.Name, "_seconds") {
			latency++
		}
	}
	if latency < 4 {
		t.Errorf("exposition has %d latency histogram families, want >= 4", latency)
	}

	// Every subsystem's telemetry lands on the one scrape.
	for _, want := range []string{
		"thematicep_broker_publish_seconds_bucket",
		"thematicep_broker_published_total 1",
		"thematicep_subindex_subscriptions 1",
		`thematicep_semantics_cache_hits_total{cache="projection"}`,
		"thematicep_cluster_forward_queue_depth{peer=",
		"thematicep_cluster_dedup_windows 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
