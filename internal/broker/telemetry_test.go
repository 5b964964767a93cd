package broker

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// advancingMatcher advances a manual clock by d on every Score call, so
// pipeline stage durations are exact and bucket placement is deterministic.
func advancingMatcher(clk *telemetry.Manual, d time.Duration) Matcher {
	return MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		clk.Advance(d)
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	})
}

func TestPublishLatencyExactBucketPlacement(t *testing.T) {
	clk := telemetry.NewManual(time.Unix(0, 0))
	// 2ms per score; serial dispatch so the advance count is exact.
	b := New(advancingMatcher(clk, 2*time.Millisecond),
		WithClock(clk), WithMatchParallelism(1))
	defer b.Close()

	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("a1")); err != nil {
		t.Fatal(err)
	}

	// One scored subscription advanced the clock exactly 2ms; every other
	// stage took zero manual time. LatencyBuckets are powers of four from
	// 1µs: 2ms falls in the (1.024ms, 4.096ms] bucket, index 6.
	s := b.publishHist.Snapshot()
	if s.Count != 1 {
		t.Fatalf("publish histogram count = %d, want 1", s.Count)
	}
	if s.Counts[6] != 1 {
		t.Fatalf("2ms publish not in bucket 6 (1.024ms, 4.096ms]: counts %v", s.Counts)
	}
	if s.Sum != 0.002 {
		t.Errorf("sum = %v, want 0.002", s.Sum)
	}

	score := b.stageHist[stScore].Snapshot()
	if score.Counts[6] != 1 {
		t.Errorf("score stage not in bucket 6: counts %v", score.Counts)
	}
	for _, h := range []*telemetry.Histogram{b.stageHist[stCompile], b.stageHist[stEnumerate]} {
		if got := h.Snapshot(); got.Counts[0] != 1 {
			t.Errorf("%s: zero-duration stage not in first bucket: counts %v", h.Name(), got.Counts)
		}
	}
	if d := b.stageHist[stDeliver].Snapshot(); d.Count != 1 {
		t.Errorf("deliver histogram count = %d, want 1", d.Count)
	}
	if c := b.candHist.Snapshot(); c.Count != 1 {
		t.Errorf("candidate histogram count = %d, want 1", c.Count)
	}
}

// tickClock advances one microsecond on every read, so every span a
// publish times is non-zero without anything sleeping.
type tickClock struct{ ns atomic.Int64 }

func (c *tickClock) Now() time.Time { return time.Unix(0, c.ns.Add(int64(time.Microsecond))) }

// A sampled publish has one span per stage, each non-zero, and the stage
// spans sum exactly to the trace's total: also when helper workers time
// the match phase and the runner splits it between enumerate and score.
func TestTraceCoversEveryPipelineStage(t *testing.T) {
	for _, c := range []struct{ par, events int }{{1, 1}, {4, 7}} {
		t.Run(fmt.Sprintf("par=%d/events=%d", c.par, c.events), func(t *testing.T) {
			b := New(exactMatcher(), WithClock(&tickClock{}), WithTraceSampling(1), WithMatchParallelism(c.par))
			defer b.Close()
			if _, err := b.Subscribe(parkingSub()); err != nil {
				t.Fatal(err)
			}
			evs := make([]*event.Event, c.events)
			for i := range evs {
				evs[i] = parkingEvent(fmt.Sprintf("a%d", i))
				evs[i].ID = fmt.Sprintf("trace-ev-%d", i+1)
			}
			if err := b.PublishBatch(evs); err != nil {
				t.Fatal(err)
			}

			traces := b.Tracer().Recent()
			if len(traces) != 1 {
				t.Fatalf("got %d traces, want 1", len(traces))
			}
			tr := traces[0]
			if tr.EventID != "trace-ev-1" {
				t.Errorf("event id = %q", tr.EventID)
			}
			stages := map[string]time.Duration{}
			for _, sp := range tr.Spans {
				stages[sp.Stage] = sp.Duration
			}
			var sum time.Duration
			for _, stage := range []string{"ingest", "compile", "enumerate", "score", "deliver"} {
				d, ok := stages[stage]
				if !ok {
					t.Errorf("trace missing stage %q (spans %v)", stage, tr.Spans)
					continue
				}
				if d <= 0 {
					t.Errorf("stage %q duration = %v, want > 0", stage, d)
				}
				sum += d
			}
			if tr.Total <= 0 || sum != tr.Total {
				t.Errorf("stage spans sum to %v, total = %v; want equal and > 0", sum, tr.Total)
			}
		})
	}
}

func TestTraceSamplingOffByDefault(t *testing.T) {
	b := New(exactMatcher())
	defer b.Close()
	if b.Tracer() != nil {
		t.Fatal("tracing enabled without WithTraceSampling")
	}
	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("a1")); err != nil {
		t.Fatal(err)
	}
	if got := b.Tracer().Recent(); got != nil {
		t.Errorf("untraced broker recorded traces: %v", got)
	}
}

func TestBatchTraceWithChildSpans(t *testing.T) {
	b := New(exactMatcher(), WithTraceSampling(1))
	defer b.Close()
	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	evs := make([]*event.Event, 5)
	for i := range evs {
		evs[i] = parkingEvent(fmt.Sprintf("b%d", i))
		evs[i].ID = fmt.Sprintf("batch-ev-%d", i)
	}
	if err := b.PublishBatch(evs); err != nil {
		t.Fatal(err)
	}
	traces := b.Tracer().Recent()
	if len(traces) != 1 {
		t.Fatalf("batch produced %d traces, want 1 (the batch is one sampling unit)", len(traces))
	}
	tr := traces[0]
	if tr.EventID != evs[0].ID || len(tr.Events) != 5 {
		t.Fatalf("batch trace = id %q, %d members", tr.EventID, len(tr.Events))
	}
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		stages[sp.Stage] = true
	}
	for _, stage := range []string{"compile", "enumerate", "score", "deliver"} {
		if !stages[stage] {
			t.Errorf("batch trace missing stage %q (spans %v)", stage, tr.Spans)
		}
	}
	for _, e := range evs {
		if !stages["event:"+e.ID] {
			t.Errorf("batch trace missing child span for %s", e.ID)
		}
	}
	// Every member ID resolves to the batch trace for late forward spans.
	if !b.Tracer().AppendSpan(evs[3].ID, "forward:p1", time.Now(), time.Millisecond) {
		t.Error("batch member not attachable by event ID")
	}
}

func TestDeliverySLOObservesPublishes(t *testing.T) {
	clk := telemetry.NewManual(time.Unix(10000, 0))
	slo := telemetry.NewSLO("delivery", 0.99, 10*time.Millisecond,
		telemetry.WithSLOClock(clk), telemetry.WithSLOWindow(time.Hour))
	// 20ms per score: every publish misses the 10ms threshold.
	b := New(advancingMatcher(clk, 20*time.Millisecond),
		WithClock(clk), WithMatchParallelism(1), WithDeliverySLO(slo))
	defer b.Close()
	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if br := slo.BurnRate(slo.LongWindow()); br < 99 {
		t.Errorf("all-bad publish stream burn rate = %g, want ~100", br)
	}
	// Batches count every member against the objective.
	evs := make([]*event.Event, 7)
	for i := range evs {
		evs[i] = parkingEvent(fmt.Sprintf("b%d", i))
	}
	before, beforeBad := sloCounts(slo)
	if err := b.PublishBatch(evs); err != nil {
		t.Fatal(err)
	}
	after, afterBad := sloCounts(slo)
	if after-before != 7 {
		t.Errorf("batch observed %d events against the SLO, want 7 (bad %d -> %d)",
			after-before, beforeBad, afterBad)
	}
}

func sloCounts(s *telemetry.SLO) (total, bad uint64) {
	var sb strings.Builder
	s.WriteMetrics(telemetry.NewExpo(&sb))
	var good uint64
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "thematicep_slo_window_good") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &good)
		}
		if strings.HasPrefix(line, "thematicep_slo_window_bad") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &bad)
		}
	}
	return good + bad, bad
}

// TestStatsSnapshotInvariant hammers Publish from several goroutines while
// scraping Stats, asserting the documented snapshot guarantee: without
// replay, Delivered <= Matched <= Scanned in every snapshot.
func TestStatsSnapshotInvariant(t *testing.T) {
	b := New(exactMatcher(), WithReplayBuffer(0), WithQueueSize(4))
	defer b.Close()
	for i := 0; i < 8; i++ {
		s, err := b.Subscribe(parkingSub())
		if err != nil {
			t.Fatal(err)
		}
		go func() { // slow consumer, keeps queues churning
			for range stream(s) {
				time.Sleep(time.Microsecond)
			}
		}()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Publish(parkingEvent(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			st := b.Stats()
			if st.Delivered > st.Matched {
				t.Fatalf("snapshot skew: Delivered %d > Matched %d", st.Delivered, st.Matched)
			}
			if st.Matched > st.Scanned {
				t.Fatalf("snapshot skew: Matched %d > Scanned %d", st.Matched, st.Scanned)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBrokerSelfLint(t *testing.T) {
	b := New(exactMatcher(), WithTraceSampling(1))
	defer b.Close()
	for i := 0; i < 3; i++ {
		if _, err := b.Subscribe(parkingSub()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := b.Publish(parkingEvent(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	b.WriteMetrics(telemetry.NewExpo(&sb))
	out := sb.String()
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("broker exposition fails lint: %v\n%s", err, out)
	}
	for _, family := range []string{
		"thematicep_broker_publish_seconds_bucket",
		"thematicep_broker_score_seconds_bucket",
		"thematicep_broker_enumerate_seconds_bucket",
		"thematicep_broker_deliver_seconds_bucket",
		"thematicep_broker_compile_seconds_bucket",
		"thematicep_subindex_candidates_per_event_bucket",
		`thematicep_broker_queue_depth{subscription="sub-1"}`,
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

// BenchmarkBrokerPublishTelemetry isolates the telemetry overhead on the
// untraced publish path: one subscriber, always matching.
func BenchmarkBrokerPublishTelemetry(b *testing.B) {
	br := New(exactMatcher(), WithReplayBuffer(0), WithMatchParallelism(1))
	defer br.Close()
	s, err := br.Subscribe(parkingSub())
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range stream(s) {
		}
	}()
	ev := parkingEvent("a1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish(ev)
	}
}
