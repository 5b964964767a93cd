package matcher

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/semantics"
)

var (
	spaceOnce sync.Once
	evalSpace *semantics.Space
)

func space(t testing.TB) *semantics.Space {
	t.Helper()
	spaceOnce.Do(func() {
		evalSpace = semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	})
	return evalSpace
}

// The running example of §3: the subscription asks for increased energy
// usage on a laptop in room 112; the event reports increased energy
// consumption of a computer in room 112.
func paperPair() (*event.Subscription, *event.Event) {
	sub := &event.Subscription{
		Theme: []string{"energy policy", "computer systems"},
		Predicates: []event.Predicate{
			{Attr: "type", Value: "increased energy usage event", ApproxValue: true},
			{Attr: "device", Value: "laptop", ApproxAttr: true, ApproxValue: true},
			{Attr: "office", Value: "room 112"},
		},
	}
	ev := &event.Event{
		Theme: []string{"energy policy", "information technology"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: "increased energy consumption event"},
			{Attr: "measurement unit", Value: "kilowatt hour"},
			{Attr: "device", Value: "computer"},
			{Attr: "office", Value: "room 112"},
		},
	}
	return sub, ev
}

func TestMatchPaperExample(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	mp, ok := m.Match(sub, ev)
	if !ok {
		t.Fatal("paper example did not match")
	}
	// σ*: type -> tuple 0, device -> tuple 2, office -> tuple 3.
	wantTuples := map[int]int{0: 0, 1: 2, 2: 3}
	for _, c := range mp.Pairs {
		if want := wantTuples[c.Predicate]; c.Tuple != want {
			t.Errorf("predicate %d mapped to tuple %d, want %d", c.Predicate, c.Tuple, want)
		}
	}
	if mp.Score <= 0 || mp.Score > 1 {
		t.Errorf("score = %v out of (0,1]", mp.Score)
	}
}

func TestExactPredicateMustMatchExactly(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	// office is exact; change the event's office.
	ev.Tuples[3].Value = "room 999"
	if _, ok := m.Match(sub, ev); ok {
		t.Error("matched despite exact predicate mismatch")
	}
}

func TestApproxPredicateToleratesSynonym(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	mp1, ok := m.Match(sub, ev)
	if !ok {
		t.Fatal("no match")
	}
	// An unrelated device should score lower than the related one.
	ev.Tuples[2].Value = "rainfall"
	mp2, ok := m.Match(sub, ev)
	if !ok {
		t.Fatal("approximate predicate should still produce a mapping")
	}
	if mp2.Score >= mp1.Score {
		t.Errorf("unrelated value scored %v >= related %v", mp2.Score, mp1.Score)
	}
}

func TestMorePredicatesThanTuplesNoMatch(t *testing.T) {
	m := New(space(t))
	sub := &event.Subscription{Predicates: []event.Predicate{
		{Attr: "a", Value: "x", ApproxAttr: true, ApproxValue: true},
		{Attr: "b", Value: "y", ApproxAttr: true, ApproxValue: true},
	}}
	ev := &event.Event{Tuples: []event.Tuple{{Attr: "a", Value: "x"}}}
	if _, ok := m.Match(sub, ev); ok {
		t.Error("matched with more predicates than tuples")
	}
}

func TestSimilarityMatrixShapeAndRange(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	sim := m.SimilarityMatrix(sub, ev)
	if len(sim) != len(sub.Predicates) {
		t.Fatalf("rows = %d", len(sim))
	}
	for i, row := range sim {
		if len(row) != len(ev.Tuples) {
			t.Fatalf("row %d cols = %d", i, len(row))
		}
		for j, v := range row {
			if v < 0 || v > 1 {
				t.Errorf("sim[%d][%d] = %v out of [0,1]", i, j, v)
			}
		}
	}
	// Exact predicate office=room 112: similarity 1 to tuple 3, 0 elsewhere.
	for j := range ev.Tuples {
		want := 0.0
		if j == 3 {
			want = 1.0
		}
		if sim[2][j] != want {
			t.Errorf("sim[office][%d] = %v, want %v", j, sim[2][j], want)
		}
	}
}

func TestIdenticalTermsScoreOneEvenWithTilde(t *testing.T) {
	m := New(space(t))
	sub := &event.Subscription{Predicates: []event.Predicate{
		{Attr: "device", Value: "laptop", ApproxAttr: true, ApproxValue: true},
	}}
	ev := &event.Event{Tuples: []event.Tuple{{Attr: "device", Value: "laptop"}}}
	mp, ok := m.Match(sub, ev)
	if !ok || mp.Score != 1 {
		t.Errorf("self match score = %v, %v; want 1, true", mp.Score, ok)
	}
}

func TestCorrespondenceProbabilitiesNormalized(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	sim := m.SimilarityMatrix(sub, ev)
	mp, ok := m.Match(sub, ev)
	if !ok {
		t.Fatal("no match")
	}
	for _, c := range mp.Pairs {
		rowSum := 0.0
		for _, v := range sim[c.Predicate] {
			rowSum += v
		}
		want := sim[c.Predicate][c.Tuple] / rowSum
		if math.Abs(c.Probability-want) > 1e-12 {
			t.Errorf("P(pred %d) = %v, want %v", c.Predicate, c.Probability, want)
		}
		if c.Probability < 0 || c.Probability > 1 {
			t.Errorf("P out of range: %v", c.Probability)
		}
	}
}

func TestMatchTopK(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	const k = 5
	mappings := m.MatchTopK(sub, ev, k)
	if len(mappings) == 0 {
		t.Fatal("no mappings")
	}
	if len(mappings) > k {
		t.Fatalf("got %d mappings, want <= %d", len(mappings), k)
	}
	sum := 0.0
	for i, mp := range mappings {
		sum += mp.Probability
		if i > 0 && mp.Score > mappings[i-1].Score+1e-12 {
			t.Errorf("mappings not sorted by score: %v after %v", mp.Score, mappings[i-1].Score)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("top-k probabilities sum to %v, want 1", sum)
	}
	// Top-1 of top-k equals Match.
	top1, _ := m.Match(sub, ev)
	if math.Abs(mappings[0].Score-top1.Score) > 1e-12 {
		t.Errorf("top-1 scores disagree: %v vs %v", mappings[0].Score, top1.Score)
	}
}

func TestMatchTopKZeroK(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	if got := m.MatchTopK(sub, ev, 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestThematicDiffersFromNonThematic(t *testing.T) {
	s := space(t)
	thematic := New(s)
	nonThematic := New(s, WithThematic(false))
	if !thematic.Thematic() || nonThematic.Thematic() {
		t.Fatal("Thematic() flags wrong")
	}
	sub, ev := paperPair()
	st := thematic.Score(sub, ev)
	sn := nonThematic.Score(sub, ev)
	if st == sn {
		t.Errorf("thematic and non-thematic scores identical: %v", st)
	}
}

// The disambiguation effect at matcher level: a subscription for bus-related
// events under a transport theme should rank a transport "coach" event above
// a tutoring "coach" event... and the education subscription the reverse.
func TestMatcherDisambiguatesHomographs(t *testing.T) {
	m := New(space(t))
	transportSub := &event.Subscription{
		Theme: []string{"land transport", "public transport", "road traffic"},
		Predicates: []event.Predicate{
			{Attr: "vehicle", Value: "bus", ApproxAttr: true, ApproxValue: true},
		},
	}
	coachTransport := &event.Event{
		Theme:  []string{"land transport", "public transport"},
		Tuples: []event.Tuple{{Attr: "vehicle", Value: "coach"}},
	}
	coachEducation := &event.Event{
		Theme:  []string{"teaching", "education policy"},
		Tuples: []event.Tuple{{Attr: "instructor", Value: "coach"}},
	}
	st := m.Score(transportSub, coachTransport)
	se := m.Score(transportSub, coachEducation)
	if st <= se {
		t.Errorf("transport sub: coach-as-bus %v <= coach-as-tutor %v", st, se)
	}
}

func TestMatchedThreshold(t *testing.T) {
	mp := Mapping{Score: 0.5}
	if !mp.Matched(0.3) || mp.Matched(0.6) {
		t.Error("Matched threshold logic wrong")
	}
	zero := Mapping{Score: 0}
	if zero.Matched(0) {
		t.Error("zero-score mapping must never match")
	}
}

func TestScoreInvariantUnderTupleOrder(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	s1 := m.Score(sub, ev)
	// Reverse the tuples.
	rev := &event.Event{Theme: ev.Theme}
	for i := len(ev.Tuples) - 1; i >= 0; i-- {
		rev.Tuples = append(rev.Tuples, ev.Tuples[i])
	}
	s2 := m.Score(sub, rev)
	if math.Abs(s1-s2) > 1e-12 {
		t.Errorf("score depends on tuple order: %v vs %v", s1, s2)
	}
}

func TestConcurrentMatching(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				m.Match(sub, ev)
				m.MatchTopK(sub, ev, 3)
			}
		}()
	}
	wg.Wait()
}

// TestRowTableConcurrentGrowth prepares subscriptions over fresh terms, so
// the row table grows by several pages, while other goroutines score
// subscriptions prepared earlier through ScorePrepared and an arena: a
// scorer must always read its rows' entries, never a page being replaced.
func TestRowTableConcurrentGrowth(t *testing.T) {
	m := New(semantics.NewSpace(space(t).Index()))
	sub, ev := paperPair()
	pe := m.PrepareEvent(ev)
	ready := []*PreparedSubscription{m.PrepareSubscription(sub), m.PrepareSubscription(sub.Approximate())}
	want := make([]float64, len(ready))
	for i, ps := range ready {
		want[i] = m.ScorePrepared(ps, pe)
	}
	const writers, perWriter = 2, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				term := fmt.Sprintf("fresh term %d %d", w, i)
				m.PrepareSubscription(&event.Subscription{Theme: sub.Theme, Predicates: []event.Predicate{
					{Attr: term, Value: term, ApproxAttr: true, ApproxValue: true},
				}})
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eb := m.NewEventBatch()
			defer m.FinishEventBatch(eb)
			ar := m.NewBatchArena(eb)
			for i := 0; i < 200; i++ {
				for k, ps := range ready {
					if got := m.ScorePrepared(ps, pe); got != want[k] {
						t.Errorf("sub %d: ScorePrepared %v, want %v", k, got, want[k])
						return
					}
				}
				// A fresh event each round, so the arena refills its rows.
				q := m.PrepareEventInBatch(eb, ev)
				if got := m.ScoreBatchInArena(ar, ready, q, nil); got[0] != want[0] || got[1] != want[1] {
					t.Errorf("arena %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*m.rows.Load()); n < 3 {
		t.Fatalf("row table has %d pages; the growth is unexercised", n)
	}
}
