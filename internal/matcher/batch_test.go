package matcher

import (
	"fmt"
	"math/rand"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/workload"
)

// batchPopulation prepares a varied subscription population — exact,
// fully approximate, partially approximate, comparison-op, and
// infeasible-shape subscriptions — against the evaluation workload.
func batchPopulation(t testing.TB, m *Matcher) ([]*PreparedSubscription, []*PreparedEvent) {
	t.Helper()
	w := workload.Generate(workload.Config{
		Seed: 13, SeedEvents: 24, ExpandedPerSeed: 3, Subscriptions: 30, MaxPredicates: 3,
	})
	w.ApplyThemes(w.SampleThemes(rand.New(rand.NewSource(5)), 2, 2))

	rng := rand.New(rand.NewSource(17))
	var subs []*event.Subscription
	for i, s := range w.ApproxSubs {
		subs = append(subs, s)
		subs = append(subs, workload.PartiallyApproximate(s, 0.5, rng))
		if i%5 == 0 {
			subs = append(subs, s.Exact())
		}
	}
	// Comparison predicates exercise the raw-value EvalOp path.
	subs = append(subs,
		&event.Subscription{Predicates: []event.Predicate{
			{Attr: "room", Value: "100", Op: event.OpGt},
			{Attr: "type", Value: "parking", ApproxValue: true},
		}},
		&event.Subscription{Theme: []string{"energy"}, Predicates: []event.Predicate{
			{Attr: "floor", Value: "3", Op: event.OpLte, ApproxAttr: true},
		}},
		// More predicates than most events have tuples: infeasible shape.
		&event.Subscription{Predicates: []event.Predicate{
			{Attr: "a1", Value: "v", ApproxValue: true}, {Attr: "a2", Value: "v", ApproxValue: true},
			{Attr: "a3", Value: "v", ApproxValue: true}, {Attr: "a4", Value: "v", ApproxValue: true},
			{Attr: "a5", Value: "v", ApproxValue: true}, {Attr: "a6", Value: "v", ApproxValue: true},
			{Attr: "a7", Value: "v", ApproxValue: true}, {Attr: "a8", Value: "v", ApproxValue: true},
			{Attr: "a9", Value: "v", ApproxValue: true}, {Attr: "a10", Value: "v", ApproxValue: true},
			{Attr: "a11", Value: "v", ApproxValue: true}, {Attr: "a12", Value: "v", ApproxValue: true},
		}},
	)

	var ps []*PreparedSubscription
	for _, s := range subs {
		ps = append(ps, m.PrepareSubscription(s))
	}
	var pe []*PreparedEvent
	for i, e := range w.Events {
		if i >= 20 {
			break
		}
		pe = append(pe, m.PrepareEvent(e))
	}
	return ps, pe
}

// checkArenaBitIdentity sweeps every event through one arena twice — once
// prepared through the batch context (the memo persists while consecutive
// events share a term vector) and once prepared outside it (no vector
// identity: the memo is evicted per call) — and requires exactly the
// floats the row-at-a-time ScorePrepared produces.
func checkArenaBitIdentity(t *testing.T, m *Matcher, subs []*PreparedSubscription, events []*PreparedEvent) {
	t.Helper()
	eb := m.NewEventBatch()
	defer m.FinishEventBatch(eb)
	ar := m.NewBatchArena(eb)
	var out []float64
	for ei, pe := range events {
		for _, q := range []*PreparedEvent{m.PrepareEventInBatch(eb, pe.Event()), pe} {
			out = m.ScoreBatchInArena(ar, subs, q, out[:0])
			if len(out) != len(subs) {
				t.Fatalf("event %d: ScoreBatchInArena returned %d scores for %d subs", ei, len(out), len(subs))
			}
			for si, ps := range subs {
				if want := m.ScorePrepared(ps, pe); out[si] != want {
					t.Errorf("event %d sub %d (vec %d): arena %v != serial %v", ei, si, q.attrsVec, out[si], want)
				}
			}
		}
	}
}

// TestScoreBatchInArenaMatchesScorePrepared is the bit-identity contract:
// the columnar arena sweep must produce exactly the floats the
// row-at-a-time path produces, for every subscription shape, so the
// publish pipeline can never change a delivery set.
func TestScoreBatchInArenaMatchesScorePrepared(t *testing.T) {
	m := New(space(t))
	subs, events := batchPopulation(t, m)
	checkArenaBitIdentity(t, m, subs, events)
}

// TestScoreBatchInArenaNonThematic covers the non-thematic matcher mode
// (nil compiled themes share one memo row space).
func TestScoreBatchInArenaNonThematic(t *testing.T) {
	m := New(space(t), WithThematic(false))
	subs, events := batchPopulation(t, m)
	checkArenaBitIdentity(t, m, subs, events[:5])
}

// TestScoreBatchZeroAlloc gates the warm columnar sweep at 0 allocs/op for
// the common ≤3-predicate population, same idiom as the ScorePrepared gate
// — both through a batch-prepared event and through the vector-less
// fallback, which re-fills the evicted memo in place.
func TestScoreBatchZeroAlloc(t *testing.T) {
	m := New(space(t))
	sub, ev := benchPair()
	subs := make([]*PreparedSubscription, 0, 32)
	for i := 0; i < 32; i++ {
		s := *sub
		s.Predicates = append([]event.Predicate(nil), sub.Predicates...)
		// Vary one value so rows overlap but are not all identical.
		s.Predicates[i%3].Value = fmt.Sprintf("%s %d", s.Predicates[i%3].Value, i%4)
		subs = append(subs, m.PrepareSubscription(&s))
	}
	eb := m.NewEventBatch()
	defer m.FinishEventBatch(eb)
	ar := m.NewBatchArena(eb)
	scores := make([]float64, 0, len(subs))
	for name, pe := range map[string]*PreparedEvent{
		"batch-prepared": m.PrepareEventInBatch(eb, ev),
		"vector-less":    m.PrepareEvent(ev),
	} {
		scores = m.ScoreBatchInArena(ar, subs, pe, scores[:0]) // warm caches, memo table, arena
		if allocs := testing.AllocsPerRun(100, func() {
			scores = m.ScoreBatchInArena(ar, subs, pe, scores[:0])
		}); allocs != 0 {
			t.Errorf("warm ScoreBatchInArena (%s): %v allocs/op, want 0", name, allocs)
		}
	}
	nonzero := 0
	for _, s := range scores {
		if s > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("batch produced no positive scores; population is degenerate")
	}
}

// BenchmarkScoreBatchInArena measures the columnar arena sweep against the
// equivalent serial ScorePrepared loop over the same 64-subscription
// candidate batch.
func BenchmarkScoreBatchInArena(b *testing.B) {
	m := New(space(b))
	sub, ev := benchPair()
	var subs []*PreparedSubscription
	for i := 0; i < 64; i++ {
		s := *sub
		s.Predicates = append([]event.Predicate(nil), sub.Predicates...)
		s.Predicates[i%3].Value = fmt.Sprintf("%s %d", s.Predicates[i%3].Value, i%8)
		subs = append(subs, m.PrepareSubscription(&s))
	}
	var scores []float64
	pe := m.PrepareEvent(ev)
	b.Run("arena", func(b *testing.B) {
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		// A vector-less event evicts the memo on every call, so each
		// iteration prices the row fill as well as the sweep.
		scores = m.ScoreBatchInArena(ar, subs, pe, scores[:0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scores = m.ScoreBatchInArena(ar, subs, pe, scores[:0])
		}
	})
	b.Run("serial", func(b *testing.B) {
		m.ScorePrepared(subs[0], pe)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ps := range subs {
				m.ScorePrepared(ps, pe)
			}
		}
	})
}
