package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4)
	sampled := 0
	for i := 0; i < 16; i++ {
		if a := tr.Start(fmt.Sprintf("ev-%d", i)); a != nil {
			sampled++
			a.Finish()
		}
	}
	if sampled != 4 {
		t.Errorf("sampled %d of 16 with every=4, want 4", sampled)
	}
	if got := len(tr.Recent()); got != 4 {
		t.Errorf("ring holds %d traces, want 4", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer // disabled tracer
	a := tr.Start("ev")
	if a != nil {
		t.Fatal("nil tracer sampled an event")
	}
	a.AddSpanDuration("deliver", time.Now(), time.Millisecond) // must not panic
	a.Finish()
	if tr.AppendSpan("ev", "forward", time.Now(), time.Millisecond) {
		t.Error("nil tracer accepted a late span")
	}
	if tr.Recent() != nil {
		t.Error("nil tracer returned traces")
	}
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("nil tracer handler body = %q, want []", rec.Body.String())
	}
}

func TestTracerSpansDeterministic(t *testing.T) {
	clk := NewManual(time.Unix(1000, 0))
	tr := NewTracer(1, WithClock(clk))
	a := tr.Start("ev-1")
	if a == nil {
		t.Fatal("every=1 tracer did not sample")
	}
	s0 := clk.Now()
	clk.Advance(2 * time.Millisecond)
	a.AddSpanDuration("compile", s0, clk.Now().Sub(s0))
	s1 := clk.Now()
	clk.Advance(3 * time.Millisecond)
	a.AddSpanDuration("score", s1, clk.Now().Sub(s1))
	a.Finish()

	got := tr.Recent()
	if len(got) != 1 {
		t.Fatalf("got %d traces, want 1", len(got))
	}
	trc := got[0]
	if trc.EventID != "ev-1" || trc.Total != 5*time.Millisecond {
		t.Errorf("trace = %+v, want ev-1 total 5ms", trc)
	}
	if len(trc.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(trc.Spans))
	}
	if trc.Spans[0].Stage != "compile" || trc.Spans[0].Duration != 2*time.Millisecond || trc.Spans[0].Offset != 0 {
		t.Errorf("compile span = %+v", trc.Spans[0])
	}
	if trc.Spans[1].Stage != "score" || trc.Spans[1].Duration != 3*time.Millisecond || trc.Spans[1].Offset != 2*time.Millisecond {
		t.Errorf("score span = %+v", trc.Spans[1])
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(1, WithRingSize(4))
	for i := 0; i < 10; i++ {
		a := tr.Start(fmt.Sprintf("ev-%d", i))
		a.Finish()
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(got))
	}
	// Newest first: ev-9, ev-8, ev-7, ev-6.
	for i, want := range []string{"ev-9", "ev-8", "ev-7", "ev-6"} {
		if got[i].EventID != want {
			t.Errorf("recent[%d] = %s, want %s", i, got[i].EventID, want)
		}
	}
}

func TestTracerAppendSpan(t *testing.T) {
	clk := NewManual(time.Unix(1000, 0))
	tr := NewTracer(1, WithClock(clk))
	a := tr.Start("ev-x")
	clk.Advance(time.Millisecond)
	a.Finish()

	// A cluster forward hop lands after the publish trace finished.
	hopStart := clk.Now()
	if !tr.AppendSpan("ev-x", "forward:peer-1", hopStart, 4*time.Millisecond) {
		t.Fatal("AppendSpan did not find the trace")
	}
	if tr.AppendSpan("ev-missing", "forward:peer-1", hopStart, time.Millisecond) {
		t.Error("AppendSpan matched a nonexistent event")
	}
	got := tr.Recent()[0]
	last := got.Spans[len(got.Spans)-1]
	if last.Stage != "forward:peer-1" || last.Duration != 4*time.Millisecond {
		t.Errorf("late span = %+v", last)
	}
	if got.Total != 5*time.Millisecond { // 1ms publish + 4ms hop from offset 1ms
		t.Errorf("total = %v, want 5ms (extended by the late span)", got.Total)
	}
}

func TestTracerHandlerJSON(t *testing.T) {
	tr := NewTracer(1)
	a := tr.Start("ev-json")
	a.AddSpanDuration("score", a.tr.Start, 2*time.Millisecond)
	a.Finish()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var traces []Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(traces) != 1 || traces[0].EventID != "ev-json" || len(traces[0].Spans) != 1 {
		t.Errorf("traces = %+v", traces)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

func TestTracerSlogSink(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(1, WithLogger(logger, 2))
	for i := 0; i < 4; i++ {
		a := tr.Start(fmt.Sprintf("ev-%d", i))
		a.AddSpanDuration("score", a.tr.Start, time.Millisecond)
		a.Finish()
	}
	out := buf.String()
	if n := strings.Count(out, "pipeline trace"); n != 2 {
		t.Errorf("logged %d traces with logEvery=2, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "event_id=ev-0") || !strings.Contains(out, "score=") {
		t.Errorf("log line missing event_id/span attrs:\n%s", out)
	}
}

// Regression: a late span for an evicted trace must be dropped, never
// attached to a newer trace that reuses the same event ID, and eviction
// must remove the whole trace atomically (ring entry + every index key).
func TestTracerEvictionAtomic(t *testing.T) {
	clk := NewManual(time.Unix(1000, 0))
	tr := NewTracer(1, WithClock(clk), WithRingSize(2))

	a := tr.Start("ev-old")
	clk.Advance(time.Millisecond)
	a.Finish()
	hop := clk.Now()

	// Overflow the ring so ev-old is evicted.
	for i := 0; i < 3; i++ {
		tr.Start(fmt.Sprintf("fill-%d", i)).Finish()
	}
	if tr.AppendSpan("ev-old", "forward:late", hop, time.Millisecond) {
		t.Fatal("late span attached to an evicted trace")
	}
	for _, got := range tr.Recent() {
		for _, s := range got.Spans {
			if s.Stage == "forward:late" {
				t.Fatalf("evicted trace's late span leaked into %q", got.EventID)
			}
		}
	}

	// A batch trace spanning several event IDs is evicted wholesale: no
	// member ID remains attachable.
	b := tr.StartAt("b-1", clk.Now())
	b.SetEvents([]string{"b-1", "b-2", "b-3"})
	b.Finish()
	for i := 0; i < 2; i++ {
		tr.Start(fmt.Sprintf("fill2-%d", i)).Finish()
	}
	for _, id := range []string{"b-1", "b-2", "b-3"} {
		if tr.AppendSpan(id, "forward:late", clk.Now(), time.Millisecond) {
			t.Fatalf("member %s of an evicted batch trace still attachable", id)
		}
	}

	// A newer trace reusing an evicted event ID owns the index entry; the
	// older trace (if still ringed) must not receive its spans.
	tr2 := NewTracer(1, WithRingSize(4))
	tr2.Start("dup").Finish()
	tr2.Start("dup").Finish()
	if !tr2.AppendSpan("dup", "hop", time.Now(), time.Millisecond) {
		t.Fatal("live trace rejected a late span")
	}
	recent := tr2.Recent()
	if len(recent[0].Spans) != 1 || len(recent[1].Spans) != 0 {
		t.Fatalf("late span went to the wrong dup trace: newest=%d oldest=%d spans",
			len(recent[0].Spans), len(recent[1].Spans))
	}
}

func TestTracerAdoptContinuesTrace(t *testing.T) {
	// every=1<<30: nothing samples organically, only adoption forces it.
	tr := NewTracer(1<<30, WithNode("node-b"))
	tr.Start("warm").Finish() // consume the first-event sample
	if tr.Start("organic") != nil {
		t.Fatal("tracer sampled organically with a huge interval")
	}
	tr.Adopt("ev-f", &TraceContext{TraceID: "node-a.1.2", Parent: "node-a", Sampled: true})
	a := tr.Start("ev-f")
	if a == nil {
		t.Fatal("adopted event was not sampled")
	}
	a.Finish()
	got := tr.Recent()[0]
	if got.TraceID != "node-a.1.2" || got.Parent != "node-a" || got.Node != "node-b" {
		t.Errorf("adopted trace = %+v, want trace node-a.1.2 parent node-a node node-b", got)
	}
	// Adoption is one-shot.
	if tr.Start("ev-f") != nil {
		t.Error("adoption was not consumed")
	}
	// Unsampled contexts are ignored.
	tr.Adopt("ev-g", &TraceContext{TraceID: "x", Sampled: false})
	if tr.Start("ev-g") != nil {
		t.Error("unsampled context forced sampling")
	}
}

func TestTracerContextFor(t *testing.T) {
	tr := NewTracer(1, WithNode("node-a"))
	a := tr.Start("ev-1")
	a.Finish()
	tc, ok := tr.ContextFor("ev-1")
	if !ok || !tc.Sampled || tc.Parent != "node-a" || tc.TraceID == "" {
		t.Fatalf("ContextFor = %+v %v", tc, ok)
	}
	if tc.TraceID != tr.Recent()[0].TraceID {
		t.Error("context trace ID does not match the recorded trace")
	}
	if _, ok := tr.ContextFor("ev-missing"); ok {
		t.Error("ContextFor matched a nonexistent event")
	}
	// An in-flight ActiveTrace exposes the same context before Finish.
	b := tr.Start("ev-2")
	if c := b.Context(); !c.Sampled || c.Parent != "node-a" || c.TraceID == "" {
		t.Errorf("ActiveTrace.Context = %+v", c)
	}
	b.Finish()
	var nilActive *ActiveTrace
	if c := nilActive.Context(); c.Sampled {
		t.Error("nil ActiveTrace context is sampled")
	}
}

func TestTracerBatchTrace(t *testing.T) {
	clk := NewManual(time.Unix(1000, 0))
	tr := NewTracer(1, WithClock(clk), WithNode("n1"))
	ids := []string{"e1", "e2", "e3"}
	a := tr.StartAt(ids[0], clk.Now())
	if a == nil {
		t.Fatal("batch not sampled with every=1")
	}
	a.SetEvents(ids)
	s := clk.Now()
	clk.Advance(2 * time.Millisecond)
	a.AddSpanDuration("score", s, clk.Now().Sub(s))
	a.Finish()

	got := tr.Recent()[0]
	if got.EventID != "e1" || len(got.Events) != 3 {
		t.Fatalf("batch trace = %+v", got)
	}
	// Every member resolves to the same trace for late spans and context.
	for _, id := range ids {
		if !tr.AppendSpan(id, "forward:"+id, clk.Now(), time.Millisecond) {
			t.Errorf("member %s not attachable", id)
		}
		if _, ok := tr.ContextFor(id); !ok {
			t.Errorf("member %s has no context", id)
		}
	}
	if got := tr.Recent()[0]; len(got.Spans) != 4 {
		t.Errorf("batch has %d spans, want 4", len(got.Spans))
	}

	// Batch adoption keys on the first member.
	tr2 := NewTracer(1<<30, WithNode("n2"))
	tr2.StartAt("warm", clk.Now()).Finish()
	tr2.Adopt("e1", &TraceContext{TraceID: "n1.1.1", Parent: "n1", Sampled: true})
	b := tr2.StartAt(ids[0], clk.Now())
	if b == nil {
		t.Fatal("adopted batch not sampled")
	}
	b.SetEvents(ids)
	b.Finish()
	if got := tr2.Recent()[0]; got.TraceID != "n1.1.1" || got.Parent != "n1" {
		t.Errorf("adopted batch trace = %+v", got)
	}
	var unsampled *ActiveTrace
	unsampled.SetEvents(ids) // nil-safe, like every ActiveTrace method
}

func TestTracerAdoptBounded(t *testing.T) {
	tr := NewTracer(1 << 30)
	for i := 0; i < adoptLimit+10; i++ {
		tr.Adopt(fmt.Sprintf("ev-%d", i), &TraceContext{TraceID: "t", Sampled: true})
	}
	tr.mu.Lock()
	n := len(tr.adopted)
	tr.mu.Unlock()
	if n > adoptLimit {
		t.Errorf("adoption map grew to %d, limit %d", n, adoptLimit)
	}
}

func TestManualClock(t *testing.T) {
	clk := NewManual(time.Unix(42, 0))
	t0 := clk.Now()
	clk.Advance(time.Second)
	if d := clk.Now().Sub(t0); d != time.Second {
		t.Errorf("advance moved clock by %v, want 1s", d)
	}
}
