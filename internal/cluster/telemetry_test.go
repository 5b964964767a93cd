package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// startTracedPair builds a 2-node cluster whose first broker samples every
// event's pipeline trace. The second broker's tracer only fires by adopting
// a propagated context (its own sampling interval is effectively never), so
// any trace in its ring proves cross-peer propagation rather than an
// organic sample. Both nodes advertise a metrics address in their hello.
func startTracedPair(t *testing.T) []*testNode {
	t.Helper()
	ns := make([]*testNode, 2)
	addrs := make([]string, 2)
	names := []string{"node-A", "node-B"}
	for i := range ns {
		every := 1
		if i != 0 {
			every = 1 << 30
		}
		b := broker.New(exactMatcher(),
			broker.WithTraceSampling(every, telemetry.WithNode(names[i])))
		srv := broker.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = &testNode{b: b, srv: srv, addr: addr.String()}
		addrs[i] = addr.String()
	}
	for i, tn := range ns {
		node, err := cluster.New(tn.b, cluster.Config{
			Self:         tn.addr,
			Seeds:        []string{addrs[1-i]},
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 200 * time.Millisecond,
			MetricsAddr:  "metrics-" + names[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.srv.SetBackend(node)
		tn.srv.SetPeerHandler(node)
		tn.node = node
	}
	for _, tn := range ns {
		tn.node.Start()
	}
	t.Cleanup(func() {
		for _, tn := range ns {
			tn.node.Close()
			tn.srv.Close()
			tn.b.Close()
		}
	})
	return ns
}

// TestForwardHopInTrace publishes through a 2-node federation and asserts
// the forward hop appears as a late span on the sampled publish trace,
// carrying the peer's identity and a non-zero duration.
func TestForwardHopInTrace(t *testing.T) {
	ns := startTracedPair(t)
	n0, n1 := ns[0], ns[1]

	// A theme owned by the remote node forces a forward on publish.
	tag := findTag(t, n0.node.Ring(), n1.addr)
	ev := &event.Event{
		ID:     "hop-ev-1",
		Theme:  []string{tag},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}
	if err := n0.node.Publish(ev); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event received by peer", func() bool {
		return n1.node.Stats().Received == 1
	})

	var hop telemetry.Span
	waitFor(t, "forward hop span on the trace", func() bool {
		for _, tr := range n0.b.Tracer().Recent() {
			if tr.EventID != "hop-ev-1" {
				continue
			}
			for _, sp := range tr.Spans {
				if sp.Stage == "forward:"+n1.addr {
					hop = sp
					return true
				}
			}
		}
		return false
	})
	if hop.Duration <= 0 {
		t.Errorf("forward hop duration = %v, want > 0", hop.Duration)
	}

	// The hop histogram and queue gauge ride the broker's /metrics.
	rec := httptest.NewRecorder()
	broker.MetricsHandler(n0.b, n0.node).ServeHTTP(rec,
		httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Body)
	out := string(body)
	for _, want := range []string{
		`thematicep_cluster_hop_seconds_count{peer="` + n1.addr + `"} 1`,
		`thematicep_cluster_forward_queue_depth{peer="` + n1.addr + `"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("cluster exposition fails lint: %v", err)
	}
}

// TestCrossPeerTracePropagation is the federation tracing acceptance check:
// a sampled publish at node A whose theme is owned by node B must produce
// two causally linked trace fragments sharing one trace ID — the origin
// fragment on A (no parent) and the continuation fragment on B (parent A),
// carried across the wire by the forward frame's trace context.
func TestCrossPeerTracePropagation(t *testing.T) {
	ns := startTracedPair(t)
	n0, n1 := ns[0], ns[1]

	tag := findTag(t, n0.node.Ring(), n1.addr)
	ev := &event.Event{
		ID:     "xpeer-ev-1",
		Theme:  []string{tag},
		Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
	}
	if err := n0.node.Publish(ev); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event received by peer", func() bool {
		return n1.node.Stats().Received == 1
	})

	var origin telemetry.Trace
	waitFor(t, "origin fragment on node A", func() bool {
		for _, tr := range n0.b.Tracer().Recent() {
			if tr.EventID == ev.ID {
				origin = tr
				return true
			}
		}
		return false
	})
	if origin.TraceID == "" {
		t.Fatal("origin fragment has no trace ID")
	}
	if origin.Node != "node-A" || origin.Parent != "" {
		t.Errorf("origin fragment node %q parent %q, want node-A with no parent",
			origin.Node, origin.Parent)
	}

	var remote telemetry.Trace
	waitFor(t, "continuation fragment on node B", func() bool {
		for _, tr := range n1.b.Tracer().Recent() {
			if tr.EventID == ev.ID {
				remote = tr
				return true
			}
		}
		return false
	})
	if remote.TraceID != origin.TraceID {
		t.Errorf("fragments do not share a trace ID: origin %q, remote %q",
			origin.TraceID, remote.TraceID)
	}
	if remote.Node != "node-B" || remote.Parent != "node-A" {
		t.Errorf("remote fragment node %q parent %q, want node-B forwarded by node-A",
			remote.Node, remote.Parent)
	}
	// The remote fragment is a full pipeline trace in its own right.
	stages := map[string]bool{}
	for _, sp := range remote.Spans {
		stages[sp.Stage] = true
	}
	for _, stage := range []string{"ingest", "compile", "enumerate", "score"} {
		if !stages[stage] {
			t.Errorf("remote fragment missing stage %q (spans %v)", stage, remote.Spans)
		}
	}
}

// TestCrossPeerBatchTracePropagation covers the batched path: a sampled
// PublishBatch forwarded as one forwardb frame continues the batch trace on
// the receiving shard, keyed by the sub-batch's first member event.
func TestCrossPeerBatchTracePropagation(t *testing.T) {
	ns := startTracedPair(t)
	n0, n1 := ns[0], ns[1]

	tag := findTag(t, n0.node.Ring(), n1.addr)
	evs := make([]*event.Event, 3)
	for i := range evs {
		evs[i] = &event.Event{
			ID:     fmt.Sprintf("xbatch-ev-%d", i),
			Theme:  []string{tag},
			Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
		}
	}
	if err := n0.node.PublishBatch(evs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch received by peer", func() bool {
		return n1.node.Stats().Received == 3
	})

	var origin telemetry.Trace
	for _, tr := range n0.b.Tracer().Recent() {
		if tr.Member(evs[0].ID) {
			origin = tr
			break
		}
	}
	if origin.TraceID == "" {
		t.Fatal("no origin batch trace on node A")
	}
	var remote telemetry.Trace
	waitFor(t, "batch continuation fragment on node B", func() bool {
		for _, tr := range n1.b.Tracer().Recent() {
			if tr.TraceID == origin.TraceID {
				remote = tr
				return true
			}
		}
		return false
	})
	if remote.Parent != "node-A" || remote.Node != "node-B" {
		t.Errorf("remote batch fragment node %q parent %q", remote.Node, remote.Parent)
	}
	if len(remote.Events) != 3 {
		t.Errorf("remote batch fragment has %d members, want 3", len(remote.Events))
	}
}

// TestPeerDirectoryLearnsMetricsAddrs asserts the /debug/peers scrape
// directory: self first with its configured metrics address, peers filled
// in as their hello frames arrive.
func TestPeerDirectoryLearnsMetricsAddrs(t *testing.T) {
	ns := startTracedPair(t)
	n0, n1 := ns[0], ns[1]

	waitFor(t, "metrics addr learned from peer hello", func() bool {
		for _, p := range n0.node.PeerDirectory() {
			if p.Node == n1.addr && p.Metrics == "metrics-node-B" {
				return true
			}
		}
		return false
	})

	rec := httptest.NewRecorder()
	n0.node.PeersHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/peers", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/peers = %d", rec.Code)
	}
	var dir []cluster.PeerInfo
	if err := json.NewDecoder(rec.Body).Decode(&dir); err != nil {
		t.Fatal(err)
	}
	if len(dir) != 2 {
		t.Fatalf("directory has %d rows, want 2: %+v", len(dir), dir)
	}
	if !dir[0].Self || dir[0].Node != n0.addr || dir[0].Metrics != "metrics-node-A" {
		t.Errorf("self row = %+v", dir[0])
	}
	if dir[1].Self || dir[1].Node != n1.addr || dir[1].Metrics != "metrics-node-B" {
		t.Errorf("peer row = %+v", dir[1])
	}

	rec = httptest.NewRecorder()
	n0.node.PeersHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/peers", nil))
	if rec.Code != 405 {
		t.Errorf("POST /debug/peers = %d, want 405", rec.Code)
	}
}
