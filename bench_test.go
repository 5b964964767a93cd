package thematicep_test

// Benchmarks regenerating the paper's evaluation artifacts (DESIGN.md §3).
// Each table/figure has a bench whose name carries the experiment id; run
//
//	go test -bench=. -benchmem
//
// Benches report events/sec (the paper's throughput metric) via
// b.ReportMetric in addition to ns/op. cmd/repro produces the F1 numbers;
// benches focus on the time-efficiency half of the evaluation plus the
// ablations of DESIGN.md §4.

import (
	"math/rand"
	"sync"
	"testing"

	"thematicep/internal/assign"
	"thematicep/internal/baseline"
	"thematicep/internal/broker"
	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/text"
	"thematicep/internal/workload"
)

// benchEnv is shared, lazily-built state for all benchmarks.
type benchEnv struct {
	ix    *index.Index
	work  *workload.Workload
	combo workload.ThemeCombination
}

var (
	envOnce sync.Once
	env     *benchEnv
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		ix := index.Build(corpus.GenerateDefault())
		w := workload.Generate(workload.Config{
			Seed:            7,
			SeedEvents:      60,
			ExpandedPerSeed: 5,
			Subscriptions:   30,
			MaxPredicates:   3,
		})
		rng := rand.New(rand.NewSource(7))
		env = &benchEnv{
			ix:    ix,
			work:  w,
			combo: w.SampleThemes(rng, 5, 10),
		}
	})
	return env
}

// prepareSubs prepares every workload subscription for a matcher (the
// production pattern: subscriptions are long-lived).
func prepareSubs(m *matcher.Matcher, w *workload.Workload) []*matcher.PreparedSubscription {
	out := make([]*matcher.PreparedSubscription, len(w.ApproxSubs))
	for i, s := range w.ApproxSubs {
		out[i] = m.PrepareSubscription(s)
	}
	return out
}

// matchAll matches every prepared subscription against event ei; one call
// is one processed event (the paper's throughput unit).
func matchAll(m *matcher.Matcher, subs []*matcher.PreparedSubscription, w *workload.Workload, ei int) int {
	n := 0
	pe := m.PrepareEvent(w.Events[ei%len(w.Events)])
	for _, ps := range subs {
		if m.ScorePrepared(ps, pe) > 0 {
			n++
		}
	}
	return n
}

// reportEventsPerSec converts ns/op into the paper's events/sec metric.
func reportEventsPerSec(b *testing.B) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "events/sec")
	}
}

// BenchmarkFig7ThematicMatch (E1) processes events with the thematic
// matcher under a mid-grid theme combination; one op = one event matched
// against every subscription.
func BenchmarkFig7ThematicMatch(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	m := matcher.New(semantics.NewSpace(e.ix))
	subs := prepareSubs(m, e.work)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchAll(m, subs, e.work, i)
	}
	reportEventsPerSec(b)
}

// BenchmarkFig9Throughput (E3) sweeps theme sizes: throughput decreases as
// themes grow (paper Fig. 9), and the diagonal of equal large themes is
// slowest.
func BenchmarkFig9Throughput(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(9))
	for _, sizes := range [][2]int{{2, 5}, {5, 10}, {15, 15}, {30, 30}} {
		combo := e.work.SampleThemes(rng, sizes[0], sizes[1])
		b.Run(benchName("e", sizes[0], "s", sizes[1]), func(b *testing.B) {
			e.work.ApplyThemes(combo)
			defer e.work.ClearThemes()
			m := matcher.New(semantics.NewSpace(e.ix))
			subs := prepareSubs(m, e.work)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matchAll(m, subs, e.work, i)
			}
			reportEventsPerSec(b)
		})
	}
}

// BenchmarkBrokerPublishParallel measures end-to-end Publish throughput on
// the broker's prepared worker-pool path: one op is one event fanned over
// every subscription. The broker's default match parallelism is GOMAXPROCS,
// so `-cpu 1,2,4` sweeps the worker-pool width directly. The semantic
// caches are warmed by a full pass over the event set first — the
// steady-state regime of a long-running broker.
func BenchmarkBrokerPublishParallel(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	m := matcher.New(semantics.NewSpace(e.ix))
	br := broker.New(m,
		broker.WithThreshold(0.3), broker.WithReplayBuffer(0), broker.WithQueueSize(64))
	var wg sync.WaitGroup
	for _, s := range e.work.ApproxSubs {
		sub, err := br.Subscribe(s)
		if err != nil {
			b.Fatal(err)
		}
		consume(&wg, sub)
	}
	for _, ev := range e.work.Events {
		if err := br.Publish(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish(e.work.Events[i%len(e.work.Events)]); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b)
	b.StopTimer()
	br.Close()
	wg.Wait()
}

// BenchmarkNonThematicBaseline (E5) is the paper's §5.2.5 baseline: the
// domain-independent measure over the full space.
func BenchmarkNonThematicBaseline(b *testing.B) {
	e := benchSetup(b)
	e.work.ClearThemes()
	m := matcher.New(semantics.NewSpace(e.ix), matcher.WithThematic(false))
	subs := prepareSubs(m, e.work)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchAll(m, subs, e.work, i)
	}
	reportEventsPerSec(b)
}

// BenchmarkTable1Approaches (E7) compares all four approaches' matching
// cost on the same heterogeneous events.
func BenchmarkTable1Approaches(b *testing.B) {
	e := benchSetup(b)
	rewriter := baseline.NewRewriting(e.work.Thesaurus())
	content := baseline.ContentMatcher{}

	b.Run("content-based", func(b *testing.B) {
		e.work.ClearThemes()
		for i := 0; i < b.N; i++ {
			ev := e.work.Events[i%len(e.work.Events)]
			for _, s := range e.work.ApproxSubs {
				content.Matched(s, ev)
			}
		}
		reportEventsPerSec(b)
	})
	b.Run("concept-rewriting", func(b *testing.B) {
		e.work.ClearThemes()
		for i := 0; i < b.N; i++ {
			ev := e.work.Events[i%len(e.work.Events)]
			for _, s := range e.work.ApproxSubs {
				rewriter.Matched(s, ev)
			}
		}
		reportEventsPerSec(b)
	})
	b.Run("approximate-non-thematic", func(b *testing.B) {
		e.work.ClearThemes()
		m := matcher.New(semantics.NewSpace(e.ix), matcher.WithThematic(false))
		subs := prepareSubs(m, e.work)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matchAll(m, subs, e.work, i)
		}
		reportEventsPerSec(b)
	})
	b.Run("approximate-thematic", func(b *testing.B) {
		e.work.ApplyThemes(e.combo)
		defer e.work.ClearThemes()
		m := matcher.New(semantics.NewSpace(e.ix))
		subs := prepareSubs(m, e.work)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matchAll(m, subs, e.work, i)
		}
		reportEventsPerSec(b)
	})
}

// BenchmarkPrecomputedScores (E8) reproduces the prior-work comparison:
// approximate matching with precomputed pairwise scores versus thesaurus
// rewriting. The paper measured ~91,000 vs ~19,100 events/sec.
func BenchmarkPrecomputedScores(b *testing.B) {
	e := benchSetup(b)
	e.work.ClearThemes()

	b.Run("approximate-precomputed", func(b *testing.B) {
		space := semantics.NewSpace(e.ix)
		precompute(space, e.work) // PrecomputeScores turns the score memo on
		m := matcher.New(space, matcher.WithThematic(false))
		subs := prepareSubs(m, e.work)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matchAll(m, subs, e.work, i)
		}
		reportEventsPerSec(b)
	})
	b.Run("thesaurus-rewriting", func(b *testing.B) {
		rewriter := baseline.NewRewriting(e.work.Thesaurus())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := e.work.Events[i%len(e.work.Events)]
			for _, s := range e.work.ApproxSubs {
				rewriter.Matched(s, ev)
			}
		}
		reportEventsPerSec(b)
	})
}

func precompute(space *semantics.Space, w *workload.Workload) {
	var subTerms, eventTerms []string
	seen := make(map[string]bool)
	addTerm := func(list *[]string, term string) {
		c := text.Canonical(term)
		if !seen[c] {
			seen[c] = true
			*list = append(*list, c)
		}
	}
	for _, s := range w.ApproxSubs {
		for _, p := range s.Predicates {
			addTerm(&subTerms, p.Attr)
			addTerm(&subTerms, p.Value)
		}
	}
	seen = make(map[string]bool)
	for _, ev := range w.Events {
		for _, t := range ev.Tuples {
			addTerm(&eventTerms, t.Attr)
			addTerm(&eventTerms, t.Value)
		}
	}
	space.PrecomputeScores(subTerms, eventTerms)
}

// BenchmarkApproximationSweep (E9): lower degrees of approximation match
// faster (§5.3.2); 100% approximation is the worst case.
func BenchmarkApproximationSweep(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(11))
	for _, degree := range []float64{0, 0.5, 1.0} {
		subs := make([]*event.Subscription, len(e.work.ExactSubs))
		for i, s := range e.work.ExactSubs {
			subs[i] = workload.PartiallyApproximate(s, degree, rng)
		}
		sw := e.work.WithSubscriptions(subs)
		b.Run(benchName("degree", int(degree*100), "", -1), func(b *testing.B) {
			m := matcher.New(semantics.NewSpace(e.ix), matcher.WithThematic(false))
			subs := prepareSubs(m, sw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matchAll(m, subs, sw, i)
			}
			reportEventsPerSec(b)
		})
	}
}

// BenchmarkTopKMatching measures the §3.5 top-k mode against top-1.
func BenchmarkTopKMatching(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	m := matcher.New(semantics.NewSpace(e.ix))
	sub := e.work.ApproxSubs[0]
	for _, k := range []int{1, 3, 5} {
		b.Run(benchName("k", k, "", -1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MatchTopK(sub, e.work.Events[i%len(e.work.Events)], k)
			}
		})
	}
}

// BenchmarkAblationIDFRecompute isolates the cost of Algorithm 1's idf
// recomputation (DESIGN.md §4).
func BenchmarkAblationIDFRecompute(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	for _, enabled := range []bool{true, false} {
		name := "with-recompute"
		if !enabled {
			name = "without-recompute"
		}
		b.Run(name, func(b *testing.B) {
			m := matcher.New(semantics.NewSpace(e.ix, semantics.WithIDFRecompute(enabled)))
			subs := prepareSubs(m, e.work)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matchAll(m, subs, e.work, i)
			}
			reportEventsPerSec(b)
		})
	}
}

// BenchmarkAblationDistance compares the Euclidean (paper Eq. 5) and cosine
// measures.
func BenchmarkAblationDistance(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	for _, d := range []struct {
		name string
		dist semantics.Distance
	}{
		{name: "euclidean", dist: semantics.Euclidean},
		{name: "cosine", dist: semantics.Cosine},
	} {
		b.Run(d.name, func(b *testing.B) {
			m := matcher.New(semantics.NewSpace(e.ix, semantics.WithDistance(d.dist)))
			subs := prepareSubs(m, e.work)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matchAll(m, subs, e.work, i)
			}
			reportEventsPerSec(b)
		})
	}
}

// BenchmarkAblationCaches quantifies the projection/vector caches
// (§5.3.2's "caching and indexing" future work).
func BenchmarkAblationCaches(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	for _, enabled := range []bool{true, false} {
		name := "caches-on"
		if !enabled {
			name = "caches-off"
		}
		b.Run(name, func(b *testing.B) {
			m := matcher.New(semantics.NewSpace(e.ix, semantics.WithCaching(enabled)))
			subs := prepareSubs(m, e.work)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matchAll(m, subs, e.work, i)
			}
			reportEventsPerSec(b)
		})
	}
}

// BenchmarkColdStart measures first-match latency on a cold space (§7
// future work): every op pays full vector construction and projection.
func BenchmarkColdStart(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	sub := e.work.ApproxSubs[0]
	ev := e.work.Events[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		space := semantics.NewSpace(e.ix)
		m := matcher.New(space)
		b.StartTimer()
		m.Match(sub, ev)
	}
}

// BenchmarkProjection is a micro-bench of Algorithm 1.
func BenchmarkProjection(b *testing.B) {
	e := benchSetup(b)
	space := semantics.NewSpace(e.ix, semantics.WithCaching(false))
	theme := e.combo.SubTheme
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Project("energy consumption", theme)
	}
}

// BenchmarkRelatedness is a micro-bench of the parametric measure.
func BenchmarkRelatedness(b *testing.B) {
	e := benchSetup(b)
	space := semantics.NewSpace(e.ix)
	sub := space.Compile(e.combo.SubTheme)
	evt := space.Compile(e.combo.EventTheme)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.RelatednessCompiled("laptop", sub, "computer", evt)
	}
}

// BenchmarkRelatednessWarm is the warm steady-state regime of the
// parametric measure: unit projections cached, so each op is one cached
// lookup plus the allocation-free sparse.DotUnit kernel.
// AllocsPerOp must be 0 (also asserted in internal/semantics's
// TestRelatednessWarmZeroAlloc).
func BenchmarkRelatednessWarm(b *testing.B) {
	e := benchSetup(b)
	space := semantics.NewSpace(e.ix)
	sub := space.Compile(e.combo.SubTheme)
	evt := space.Compile(e.combo.EventTheme)
	space.RelatednessCompiled("laptop", sub, "computer", evt) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.RelatednessCompiled("laptop", sub, "computer", evt)
	}
}

// BenchmarkBrokerPublishPruned measures Publish throughput with the
// subscription pruning index on versus off, over a mixed population of
// exact and fully approximate subscriptions (exact ones are the prunable
// kind; eval-style 100%-approximate subscriptions always stay candidates).
func BenchmarkBrokerPublishPruned(b *testing.B) {
	e := benchSetup(b)
	e.work.ApplyThemes(e.combo)
	defer e.work.ClearThemes()
	for _, pruning := range []bool{false, true} {
		name := "pruning-off"
		if pruning {
			name = "pruning-on"
		}
		b.Run(name, func(b *testing.B) {
			m := matcher.New(semantics.NewSpace(e.ix))
			br := broker.New(m,
				broker.WithPruning(pruning),
				broker.WithThreshold(0.3), broker.WithReplayBuffer(0), broker.WithQueueSize(64))
			var wg sync.WaitGroup
			subscribe := func(s *event.Subscription) {
				sub, err := br.Subscribe(s)
				if err != nil {
					b.Fatal(err)
				}
				consume(&wg, sub)
			}
			for i := range e.work.ApproxSubs {
				subscribe(e.work.ApproxSubs[i])
				subscribe(e.work.ExactSubs[i])
			}
			for _, ev := range e.work.Events {
				if err := br.Publish(ev); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish(e.work.Events[i%len(e.work.Events)]); err != nil {
					b.Fatal(err)
				}
			}
			reportEventsPerSec(b)
			b.StopTimer()
			st := br.Stats()
			if st.Scanned > 0 {
				b.ReportMetric(100*float64(st.Pruned)/float64(st.Scanned+st.Pruned), "%pruned")
			}
			br.Close()
			wg.Wait()
		})
	}
}

// BenchmarkAssignment is a micro-bench of the Hungarian top-1 solver on a
// typical similarity matrix size (3 predicates x 9 tuples).
func BenchmarkAssignment(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	w := make([][]float64, 3)
	for i := range w {
		w[i] = make([]float64, 9)
		for j := range w[i] {
			w[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.Best(w)
	}
}

// BenchmarkIndexBuild measures corpus indexing (cold-start infrastructure).
func BenchmarkIndexBuild(b *testing.B) {
	c := corpus.GenerateDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(c)
	}
}

func benchName(k1 string, v1 int, k2 string, v2 int) string {
	name := k1 + itoa(v1)
	if v2 >= 0 {
		name += "-" + k2 + itoa(v2)
	}
	return name
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// consume keeps up with sub's queue, the way a live subscriber does: each
// wake-up of its hook takes the whole queue, until the subscription closes.
func consume(wg *sync.WaitGroup, sub broker.SubHandle) {
	wake := make(chan struct{}, 1)
	sub.SetNotify(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var batch []broker.Delivery
		for open := true; open; {
			<-wake
			batch, open = sub.Take(batch[:0])
			clear(batch)
		}
	}()
}
