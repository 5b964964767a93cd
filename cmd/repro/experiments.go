package main

import (
	"fmt"
	"math/rand"
	"time"

	"thematicep/internal/baseline"
	"thematicep/internal/eval"
	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/text"
	"thematicep/internal/vocab"
	"thematicep/internal/workload"
)

func corpusDomains() []vocab.Domain { return vocab.AllDomains() }

// runShape is the quick development check: thematic (one mid-grid theme
// combination) versus non-thematic on the same workload.
func runShape(e *env0) error {
	base := e.baseline()
	rng := rand.New(rand.NewSource(e.seed))
	var f1s, thrs []float64
	const samples = 4
	for i := 0; i < samples; i++ {
		combo := e.work.SampleThemes(rng, 5, 10)
		e.work.ApplyThemes(combo)
		e.space.ResetCaches()
		them := eval.Run(matcher.New(e.space), e.work)
		f1s = append(f1s, them.F1)
		thrs = append(thrs, them.Throughput)
	}
	e.work.ClearThemes()
	f1, f1std := eval.MeanStd(f1s)
	thr, _ := eval.MeanStd(thrs)
	fmt.Printf("== shape check: thematic (e=5, s=10; %d samples) vs non-thematic ==\n", samples)
	fmt.Printf("thematic:     F1 = %.3f (std %.3f), throughput = %.0f ev/s\n", f1, f1std, thr)
	fmt.Printf("non-thematic: F1 = %.3f, throughput = %.0f ev/s\n", base.F1, base.Throughput)
	fmt.Printf("delta:        F1 %+.1f points, throughput x%.2f\n\n",
		100*(f1-base.F1), thr/base.Throughput)
	return nil
}

// runTable1 makes Table 1 quantitative (E7): all four approaches on the
// same heterogeneous workload, plus the content-based approach on the
// homogeneous (seed) workload where full agreement holds.
func runTable1(e *env0) error {
	fmt.Println("== E7/Table 1: approaches to semantic coupling ==")

	// Content-based on the homogeneous load: exact subscriptions against
	// seed events — the 100% effectiveness regime of Table 1.
	content := baseline.ContentMatcher{}
	agree := 0.0
	for si, sub := range e.work.ExactSubs {
		scores := make([]float64, len(e.work.Seeds))
		for ei, seed := range e.work.Seeds {
			scores[ei] = content.Score(sub, seed)
		}
		agree += eval.MaxF1(scores, func(ei int) bool {
			return event.ExactMatch(e.work.ExactSubs[si], e.work.Seeds[ei])
		})
	}
	agree /= float64(len(e.work.ExactSubs))

	e.work.ClearThemes()
	e.space.ResetCaches()
	contentRes := eval.Run(scorerFunc(func(s *event.Subscription, ev *event.Event) float64 {
		return content.Score(s, ev)
	}), e.work)

	rewriter := baseline.NewRewriting(e.work.Thesaurus())
	rewriteRes := eval.Run(scorerFunc(rewriter.Score), e.work)

	nonThematic := e.baseline()

	rng := rand.New(rand.NewSource(e.seed))
	combo := e.work.SampleThemes(rng, 5, 10)
	e.work.ApplyThemes(combo)
	e.space.ResetCaches()
	thematic := eval.Run(matcher.New(e.space), e.work)
	e.work.ClearThemes()

	// Subscription-coverage cost: how many exact subscriptions the
	// approximate set is equivalent to (paper: 94 ≈ 48,000).
	equivalent := 0
	for _, s := range e.work.ApproxSubs {
		equivalent += rewriter.RewriteCount(s)
	}

	row := func(name string, f1, thr float64) {
		fmt.Printf("%-42s %-9s %s\n", name,
			fmt.Sprintf("%.1f%%", 100*f1), fmt.Sprintf("%.0f ev/s", thr))
	}
	fmt.Printf("%-42s %-9s %s\n", "approach", "F1", "throughput")
	fmt.Printf("%-42s %.0f%% (paper: 100%% under full agreement)\n",
		"content-based (homogeneous load)", 100*agree)
	row("content-based (heterogeneous load)", contentRes.F1, contentRes.Throughput)
	row("concept-based rewriting", rewriteRes.F1, rewriteRes.Throughput)
	row("approximate non-thematic", nonThematic.F1, nonThematic.Throughput)
	row("approximate thematic (e=5, s=10)", thematic.F1, thematic.Throughput)
	fmt.Printf("\n%d approximate subscriptions cover the heterogeneity of ~%d exact ones (paper: 94 -> ~48,000)\n\n",
		len(e.work.ApproxSubs), equivalent)
	return nil
}

type scorerFunc func(*event.Subscription, *event.Event) float64

func (f scorerFunc) Score(s *event.Subscription, e *event.Event) float64 { return f(s, e) }

// runPrior reproduces the prior-work comparison of §5 (E8): approximate
// matching with precomputed esa scores vs thesaurus rewriting, on 10 sets
// of 10..100 subscriptions at 50% degree of approximation.
func runPrior(e *env0) error {
	fmt.Println("== E8: prior-work comparison ([16], §5): precomputed approximate vs rewriting ==")
	rng := rand.New(rand.NewSource(e.seed + 1))

	var apprF1s, rewrF1s []float64
	var apprThr, rewrThr []float64

	rewriter := baseline.NewRewriting(e.work.Thesaurus())
	for set := 0; set < 10; set++ {
		nSubs := 10 + set*10
		subs := make([]*event.Subscription, 0, nSubs)
		for len(subs) < nSubs {
			src := e.work.ExactSubs[rng.Intn(len(e.work.ExactSubs))]
			subs = append(subs, workload.PartiallyApproximate(src, 0.5, rng))
		}
		sw := subWorkload(e.work, subs)

		// Precompute all pairwise scores, then measure pure matching time.
		// The scores go into a space of their own: PrecomputeScores turns
		// the memo on for good, and the shared space must leave E8 as it
		// came in.
		space := semantics.NewSpace(e.space.Index())
		precomputePairScores(space, sw)
		m := matcher.New(space, matcher.WithThematic(false))
		res := eval.Run(m, sw)
		apprF1s = append(apprF1s, res.F1)
		apprThr = append(apprThr, res.Throughput)

		rres := eval.Run(scorerFunc(rewriter.Score), sw)
		rewrF1s = append(rewrF1s, rres.F1)
		rewrThr = append(rewrThr, rres.Throughput)
	}

	aF1, _ := eval.MeanStd(apprF1s)
	rF1, _ := eval.MeanStd(rewrF1s)
	aThr, _ := eval.MeanStd(apprThr)
	rThr, _ := eval.MeanStd(rewrThr)
	fmt.Printf("%-36s %-22s %s\n", "approach", "F1 (paper)", "throughput (paper)")
	fmt.Printf("%-36s %.1f%% (94-97%%)       %.0f ev/s (~91,000)\n",
		"approximate, precomputed scores", 100*aF1, aThr)
	fmt.Printf("%-36s %.1f%% (89-92%%)       %.0f ev/s (~19,100)\n",
		"thesaurus rewriting", 100*rF1, rThr)
	fmt.Printf("throughput ratio approximate/rewriting: measured x%.1f (paper ~x4.8)\n\n", aThr/rThr)
	return nil
}

// subWorkload clones w with a different subscription set. Ground truth is
// recomputed from the exact versions of the given subscriptions.
func subWorkload(w *workload.Workload, subs []*event.Subscription) *workload.Workload {
	return w.WithSubscriptions(subs)
}

// precomputePairScores fills the score cache with every (subscription term,
// event term) relatedness so matching is lookup-only.
func precomputePairScores(space *semantics.Space, w *workload.Workload) {
	subTerms := make(map[string]bool)
	for _, s := range w.ApproxSubs {
		for _, p := range s.Predicates {
			subTerms[text.Canonical(p.Attr)] = true
			subTerms[text.Canonical(p.Value)] = true
		}
	}
	eventTerms := make(map[string]bool)
	for _, ev := range w.Events {
		for _, t := range ev.Tuples {
			eventTerms[text.Canonical(t.Attr)] = true
			eventTerms[text.Canonical(t.Value)] = true
		}
	}
	st := make([]string, 0, len(subTerms))
	for t := range subTerms {
		st = append(st, t)
	}
	et := make([]string, 0, len(eventTerms))
	for t := range eventTerms {
		et = append(et, t)
	}
	space.PrecomputeScores(st, et)
}

// runSweep reproduces the approximation-degree observation of §5.3.2 (E9):
// lower degrees of approximation give higher throughput.
func runSweep(e *env0) error {
	fmt.Println("== E9: approximation-degree sweep (§5.3.2) ==")
	rng := rand.New(rand.NewSource(e.seed + 2))
	fmt.Printf("%-10s %-10s %s\n", "degree", "F1", "throughput")
	for _, degree := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		subs := make([]*event.Subscription, len(e.work.ExactSubs))
		for i, s := range e.work.ExactSubs {
			subs[i] = workload.PartiallyApproximate(s, degree, rng)
		}
		sw := subWorkload(e.work, subs)
		e.space.ResetCaches()
		res := eval.Run(matcher.New(e.space, matcher.WithThematic(false)), sw)
		fmt.Printf("%-10s %-10.3f %.0f ev/s\n", fmt.Sprintf("%.0f%%", 100*degree), res.F1, res.Throughput)
	}
	fmt.Println("paper: thousands of ev/s at lower degrees; worst case at 100%")
	fmt.Println()
	return nil
}

// runTopK measures the top-k hit-rate argument of §3.5 ([13]): producing
// top-k mappings increases the chance of containing the correct mapping.
func runTopK(e *env0) error {
	fmt.Println("== top-k matching mode (§3.5): correct-mapping hit rate ==")
	rng := rand.New(rand.NewSource(e.seed + 3))
	combo := e.work.SampleThemes(rng, 5, 10)
	e.work.ApplyThemes(combo)
	e.space.ResetCaches()
	m := matcher.New(e.space)

	// Sample relevant (sub, event) pairs; the correct mapping pairs each
	// predicate with the tuple holding the same attribute concept.
	type pair struct{ si, ei int }
	var pairs []pair
	for si := range e.work.ApproxSubs {
		for ei := range e.work.Events {
			if e.work.Relevant(si, ei) {
				pairs = append(pairs, pair{si, ei})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > 300 {
		pairs = pairs[:300]
	}

	ks := []int{1, 2, 3, 5}
	hits := make([]int, len(ks))
	for _, p := range pairs {
		sub := e.work.ApproxSubs[p.si]
		ev := e.work.Events[p.ei]
		mappings := m.MatchTopK(sub, ev, ks[len(ks)-1])
		for ki, k := range ks {
			for mi, mp := range mappings {
				if mi >= k {
					break
				}
				if correctMapping(e.work, sub, ev, mp) {
					hits[ki]++
					break
				}
			}
		}
	}
	e.work.ClearThemes()
	fmt.Printf("%-6s %s\n", "k", "correct mapping in top-k")
	for ki, k := range ks {
		fmt.Printf("%-6d %.1f%%\n", k, 100*float64(hits[ki])/float64(len(pairs)))
	}
	fmt.Println("(monotone non-decreasing in k reproduces the [13] argument)")
	fmt.Println()
	return nil
}

// correctMapping checks that every predicate maps to the event tuple whose
// attribute matches the predicate's attribute concept.
func correctMapping(w *workload.Workload, sub *event.Subscription, ev *event.Event, mp matcher.Mapping) bool {
	th := w.Thesaurus()
	for _, c := range mp.Pairs {
		pAttr := sub.Predicates[c.Predicate].Attr
		tAttr := ev.Tuples[c.Tuple].Attr
		if text.Canonical(pAttr) != text.Canonical(tAttr) && !th.SameConcept(pAttr, tAttr) {
			return false
		}
	}
	return true
}

// runAblation runs the design-choice ablations of DESIGN.md §4.
func runAblation(e *env0) error {
	fmt.Println("== ablations (DESIGN.md §4) ==")
	rng := rand.New(rand.NewSource(e.seed + 4))
	combo := e.work.SampleThemes(rng, 5, 10)

	type variant struct {
		name  string
		space *semantics.Space
	}
	ix := e.space.Index()
	variants := []variant{
		{name: "full (euclidean, idf recompute, caches)", space: semantics.NewSpace(ix)},
		{name: "no idf recompute", space: semantics.NewSpace(ix, semantics.WithIDFRecompute(false))},
		{name: "cosine distance", space: semantics.NewSpace(ix, semantics.WithDistance(semantics.Cosine))},
		{name: "caches disabled", space: semantics.NewSpace(ix, semantics.WithCaching(false))},
	}
	// The cold pass includes each variant's projection builds; the warm
	// pass reruns it on the same space, so its throughput is the matching
	// cost alone and can show a change the cold pass's spread would hide.
	fmt.Printf("%-44s %-8s %-11s %s\n", "variant", "F1", "cold", "warm")
	for _, v := range variants {
		e.work.ApplyThemes(combo)
		m := matcher.New(v.space)
		cold := eval.Run(m, e.work)
		warm := eval.Run(m, e.work)
		fmt.Printf("%-44s %-8.3f %5.0f ev/s  %5.0f ev/s\n", v.name, cold.F1, cold.Throughput, warm.Throughput)
	}
	e.work.ClearThemes()

	// Cold start (§7 future work): first-event latency vs warm.
	coldSpace := semantics.NewSpace(ix)
	m := matcher.New(coldSpace)
	e.work.ApplyThemes(combo)
	sub := e.work.ApproxSubs[0]
	ev := e.work.Events[0]
	start := time.Now()
	m.Match(sub, ev)
	cold := time.Since(start)
	start = time.Now()
	m.Match(sub, ev)
	warm := time.Since(start)
	e.work.ClearThemes()
	fmt.Printf("cold-start first match: %v; warm repeat: %v (x%.0f)\n\n",
		cold, warm, float64(cold)/float64(warm+1))
	return nil
}

// runTagging compares uniform and Zipf (realistic) tag sampling (§7 future
// work).
func runTagging(e *env0) error {
	fmt.Println("== tagging behaviour: uniform vs zipf tag popularity (§7) ==")
	m := matcher.New(e.space)
	sizes := []int{3, 10}
	for _, zipf := range []bool{false, true} {
		cells := eval.RunGrid(m, e.space, e.work, eval.GridConfig{
			Sizes:   sizes,
			Samples: e.samples,
			Seed:    e.seed,
			Zipf:    zipf,
		})
		sum := eval.Summarize(cells, e.baseline())
		name := "uniform"
		if zipf {
			name = "zipf"
		}
		fmt.Printf("%-8s mean F1 = %.3f, mean throughput = %.0f ev/s\n",
			name, sum.MeanF1, sum.MeanThroughput)
	}
	fmt.Println()
	return nil
}
