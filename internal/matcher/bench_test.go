package matcher

import (
	"testing"

	"thematicep/internal/event"
)

// benchPair returns a 3-predicate subscription and a 5-tuple event over the
// evaluation corpus — the common shape of the broker hot loop (bestSmall
// path, no Hungarian).
func benchPair() (*event.Subscription, *event.Event) {
	sub := &event.Subscription{
		Theme: []string{"energy policy", "computer systems"},
		Predicates: []event.Predicate{
			{Attr: "type", Value: "increased energy usage event", ApproxAttr: true, ApproxValue: true},
			{Attr: "device", Value: "laptop", ApproxAttr: true, ApproxValue: true},
			{Attr: "room", Value: "room 112", ApproxAttr: true, ApproxValue: true},
		},
	}
	ev := &event.Event{
		Theme: []string{"energy policy", "information technology"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: "increased energy consumption event"},
			{Attr: "device", Value: "computer"},
			{Attr: "room", Value: "room 112"},
			{Attr: "zone", Value: "building"},
			{Attr: "city", Value: "galway"},
		},
	}
	return sub, ev
}

// TestScorePreparedZeroAlloc is the end-to-end allocation assertion for the
// broker hot loop: with warm semantic caches, pooled similarity and
// log-weight matrices, the zero-allocation relatedness kernel, and the
// score-only small-case solver, one prepared score costs 0 allocs.
func TestScorePreparedZeroAlloc(t *testing.T) {
	m := New(space(t))
	sub, ev := benchPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	m.ScorePrepared(ps, pe) // warm every cache on the path
	if allocs := testing.AllocsPerRun(100, func() { m.ScorePrepared(ps, pe) }); allocs != 0 {
		t.Errorf("warm ScorePrepared: %v allocs/op, want 0", allocs)
	}
}

// TestMatchPreparedOnlyAllocatesMapping pins MatchPrepared's remaining
// allocations to the returned Mapping's Pairs slice — everything internal
// (similarity matrix, log weights, relatedness) is pooled or cached.
func TestMatchPreparedOnlyAllocatesMapping(t *testing.T) {
	m := New(space(t))
	sub, ev := benchPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	m.MatchPrepared(ps, pe)
	if allocs := testing.AllocsPerRun(100, func() { m.MatchPrepared(ps, pe) }); allocs > 1 {
		t.Errorf("warm MatchPrepared: %v allocs/op, want ≤1 (the Pairs slice)", allocs)
	}
}

// BenchmarkScorePrepared measures the broker's innermost loop: one prepared
// (subscription, event) score on warm caches.
func BenchmarkScorePrepared(b *testing.B) {
	m := New(space(b))
	sub, ev := benchPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	m.ScorePrepared(ps, pe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScorePrepared(ps, pe)
	}
}

// BenchmarkScorePreparedParallel scores the same pair from GOMAXPROCS
// goroutines at once, as the benchmark oracle does: every call borrows and
// returns a similarity buffer, so this measures the buffer free list under
// contention.
func BenchmarkScorePreparedParallel(b *testing.B) {
	m := New(space(b))
	sub, ev := benchPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	m.ScorePrepared(ps, pe)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.ScorePrepared(ps, pe)
		}
	})
}

// BenchmarkMatchPrepared measures the same pair through the full Mapping
// construction.
func BenchmarkMatchPrepared(b *testing.B) {
	m := New(space(b))
	sub, ev := benchPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	m.MatchPrepared(ps, pe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchPrepared(ps, pe)
	}
}
