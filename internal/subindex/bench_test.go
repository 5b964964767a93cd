package subindex

import (
	"fmt"
	"math/rand"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/text"
)

// synthPopulation fills ix with n synthetic subscriptions over a shared
// exact-term vocabulary and returns a prepared event's canonical tuple
// slices. Shapes mirror workload.GenerateScale: a few themes, 2-4 exact
// predicates per subscription drawn from ~40 attributes with per-attribute
// value vocabularies, plus a sliver of approximate-only subscriptions.
func synthPopulation(ix *Index[int], n int, seed int64) (attrs, values []string, m int) {
	rng := rand.New(rand.NewSource(seed))
	themes := []string{"energy", "transport", "waste", "water", "parking", "lighting"}
	for i := 0; i < n; i++ {
		var preds []event.Predicate
		if i%97 == 0 {
			preds = []event.Predicate{{Attr: "anything", Value: "goes", ApproxAttr: true, ApproxValue: true}}
		} else {
			np := 2 + rng.Intn(3)
			for j := 0; j < np; j++ {
				a := fmt.Sprintf("attr%02d", rng.Intn(40))
				v := fmt.Sprintf("value %d", rng.Intn(50))
				preds = append(preds, event.Predicate{Attr: a, Value: v, ApproxValue: rng.Intn(3) == 0})
			}
		}
		sub := &event.Subscription{
			Theme:      []string{themes[rng.Intn(len(themes))]},
			Predicates: preds,
		}
		ix.Add(fmt.Sprintf("s%d", i), sub, i)
	}
	ev := &event.Event{Theme: []string{"energy"}}
	for j := 0; j < 8; j++ {
		ev.Tuples = append(ev.Tuples, event.Tuple{
			Attr:  fmt.Sprintf("attr%02d", j*5),
			Value: fmt.Sprintf("value %d", rng.Intn(50)),
		})
	}
	for _, t := range ev.Tuples {
		attrs = append(attrs, text.Canonical(t.Attr))
		values = append(values, text.Canonical(t.Value))
	}
	return attrs, values, len(ev.Tuples)
}

// BenchmarkCandidates100k measures warm candidate enumeration at 1k, 10k,
// and 100k live subscriptions. candidates/op is the headline: it must grow
// far slower than the subscription count for enumeration to be sublinear.
func BenchmarkCandidates100k(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			ix := New[int]()
			attrs, values, _ := synthPopulation(ix, n, 7)
			sink := 0
			yield := func(int) { sink++ }
			var cand int
			cand, _ = ix.CandidatesPrepared(attrs, values, yield) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand, _ = ix.CandidatesPrepared(attrs, values, yield)
			}
			b.StopTimer()
			b.ReportMetric(float64(cand), "candidates/op")
			b.ReportMetric(float64(n), "subs")
		})
	}
}

// TestCandidatesZeroAlloc gates the warm enumeration path at 0 allocs/op,
// same idiom as the PR 3 kernel and PR 4 histogram gates.
func TestCandidatesZeroAlloc(t *testing.T) {
	ix := New[int]()
	attrs, values, _ := synthPopulation(ix, 5_000, 11)
	sink := 0
	yield := func(int) { sink++ }
	ix.CandidatesPrepared(attrs, values, yield) // warm the enum pool
	avg := testing.AllocsPerRun(100, func() {
		ix.CandidatesPrepared(attrs, values, yield)
	})
	if avg != 0 {
		t.Errorf("warm CandidatesPrepared allocates %.1f per run, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("enumeration yielded nothing; population or event vocabulary is broken")
	}
}

// TestCandidatesSublinear asserts the inverted index actually prunes at
// scale: enumerated candidates must be a small fraction of live
// subscriptions for a typical selective event.
func TestCandidatesSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("population build is slow in -short mode")
	}
	ix := New[int]()
	attrs, values, _ := synthPopulation(ix, 50_000, 23)
	cand, pruned := ix.CandidatesPrepared(attrs, values, func(int) {})
	if cand+pruned != 50_000 {
		t.Fatalf("cand+pruned = %d, want 50000", cand+pruned)
	}
	if cand*10 > 50_000 {
		t.Errorf("candidates = %d of 50000 subs; expected < 10%% for a selective event", cand)
	}
}
