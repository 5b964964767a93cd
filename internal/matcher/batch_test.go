package matcher

import (
	"fmt"
	"math"
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

	// One event wider than 64 tuples, the workload's tuples laid end to
	// end: every row mask against it is all-ones, and its live columns
	// fold. The predicates below hit columns on both sides of 64, exact and
	// relaxed.
	wide := &event.Event{Theme: w.Events[0].Theme}
	for _, e := range w.Events {
		for _, tu := range e.Tuples {
			if len(wide.Tuples) < 70 {
				wide.Tuples = append(wide.Tuples, tu)
			}
		}
	}
	// pred takes its attribute from column a and its value from column v,
	// so a relaxed value may score through similarity rather than identity.
	pred := func(a, v int, approxA, approxV bool) event.Predicate {
		return event.Predicate{Attr: wide.Tuples[a].Attr, Value: wide.Tuples[v].Value, ApproxAttr: approxA, ApproxValue: approxV}
	}
	subs = append(subs,
		&event.Subscription{Theme: wide.Theme, Predicates: []event.Predicate{pred(66, 66, false, false), pred(2, 69, false, true), pred(68, 68, true, false)}},
		&event.Subscription{Theme: wide.Theme, Predicates: []event.Predicate{pred(69, 64, true, true), pred(63, 0, false, true), pred(64, 64, true, false)}},
		&event.Subscription{Predicates: []event.Predicate{pred(65, 1, false, true), pred(1, 69, true, true)}},
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
	pe = append(pe, m.PrepareEvent(wide))
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

// fuzzTerms and fuzzThemes are the vocabulary FuzzRowSupport lays out
// subscriptions and events from: related terms, terms a theme filters
// completely, an off-vocabulary term, and the full space.
var (
	fuzzTerms = []string{
		"type", "device", "room", "zone", "city", "territory", "street",
		"increased energy usage event", "increased energy consumption event",
		"laptop", "computer", "room 112", "building", "galway", "parking",
		"garage spot", "energy consumption", "electricity usage", "tram",
		"microgram per cubic meter", "qqqunknownqqq",
	}
	fuzzThemes = [][]string{
		nil,
		{"energy policy"},
		{"energy policy", "computer systems"},
		{"information networks", "transport infrastructure"},
	}
)

// fuzzPairs decodes a fuzzed byte layout: subscriptions of up to three
// predicates (three bytes each: attribute, value, flags) under a theme,
// and an event of 1–80 tuples whose terms cycle through evLayout.
func fuzzPairs(m *Matcher, subLayout, evLayout []byte, width, themes uint8) ([]*PreparedSubscription, *event.Event) {
	term := func(b byte) string { return fuzzTerms[int(b)%len(fuzzTerms)] }
	var subs []*PreparedSubscription
	for k := 0; len(subLayout) >= 3 && k < 6; k++ {
		s := &event.Subscription{Theme: fuzzThemes[(int(themes)+k)%len(fuzzThemes)]}
		for len(subLayout) >= 3 && len(s.Predicates) < 3 {
			a, v, fl := subLayout[0], subLayout[1], subLayout[2]
			subLayout = subLayout[3:]
			p := event.Predicate{Attr: term(a), Value: term(v), ApproxAttr: fl&1 != 0, ApproxValue: fl&2 != 0}
			if fl&12 == 12 {
				p.Op, p.Value = event.OpGt, "3"
			}
			s.Predicates = append(s.Predicates, p)
			if fl&16 != 0 {
				break
			}
		}
		subs = append(subs, m.PrepareSubscription(s))
	}
	ev := &event.Event{Theme: fuzzThemes[int(themes>>4)%len(fuzzThemes)]}
	if len(evLayout) == 0 {
		evLayout = []byte{0}
	}
	for j := 0; j < 1+int(width)%80; j++ {
		b := int(evLayout[j%len(evLayout)]) + j/len(evLayout)
		ev.Tuples = append(ev.Tuples, event.Tuple{Attr: term(byte(b)), Value: term(byte(b >> 3))})
	}
	return subs, ev
}

// FuzzRowSupport checks the lazy row fill over fuzzed term layouts: every
// memo slot the arena holds after scoring carries the mask rowMask decides
// without the row, which is the support of the row fillRow fills for it
// — whether the scorer filled it (a candidate survived) or left it
// mask-only, in which case the check fills it here — and every arena score
// has ScorePrepared's bits.
func FuzzRowSupport(f *testing.F) {
	f.Add([]byte{0, 7, 3, 1, 9, 2, 2, 15, 0}, []byte{0, 8, 1, 9}, uint8(4), uint8(0x12))
	f.Add([]byte{5, 17, 3, 6, 19, 2, 3, 11, 1}, []byte{5, 0, 6}, uint8(69), uint8(0x31))
	f.Add([]byte{0, 20, 3, 13, 2, 30, 4, 4, 12}, []byte{13, 4}, uint8(79), uint8(0x23))
	f.Add([]byte{1, 1, 1, 2, 2, 2}, []byte{1, 2, 3, 4, 5, 6, 7}, uint8(64), uint8(0x00))
	f.Add([]byte{6, 15, 3, 0, 20, 2, 5, 18, 3, 1, 10, 19, 4, 7, 2, 2, 9, 1, 3, 14, 0}, []byte{4, 22, 9, 17, 41, 80}, uint8(11), uint8(0x10))
	f.Add([]byte{0, 9, 2, 5, 16, 3, 6, 2, 1, 13, 13, 19, 7, 20, 3, 4, 11, 2}, []byte{0, 6, 13, 40, 77}, uint8(5), uint8(0x21))
	m := New(space(f))
	f.Fuzz(func(t *testing.T, subLayout, evLayout []byte, width, themes uint8) {
		subs, ev := fuzzPairs(m, subLayout, evLayout, width, themes)
		if len(subs) == 0 {
			return
		}
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		pe := m.PrepareEventInBatch(eb, ev)
		scores := m.ScoreBatchInArena(ar, subs, pe, nil)
		plain := m.PrepareEvent(ev)
		for si, ps := range subs {
			if want := m.ScorePrepared(ps, plain); math.Float64bits(scores[si]) != math.Float64bits(want) {
				t.Errorf("sub %d: arena %v != ScorePrepared %v", si, scores[si], want)
			}
		}
		bb := ar.bb
		for si, ps := range subs {
			for i := 0; i < int(ps.np); i++ {
				pd := ps.pred(i)
				for _, kind := range []rowKind{rowAttr, rowValue} {
					r := pd.attrRow
					if kind == rowValue {
						if pd.op != event.OpEq {
							continue // comparison ops never request a value row
						}
						r = pd.valueRow
					}
					if int(r) >= len(bb.dense) || bb.dense[r].epoch != bb.epoch {
						// Never requested: the shape was infeasible, the score
						// memo served a duplicate, or an earlier predicate
						// failed its mask.
						continue
					}
					lazy := bb.dense[r].mask
					if bb.dense[r].off < 0 {
						m.fillRow(bb, kind, i, ps, pe)
					}
					if filled := bb.dense[r].mask; lazy != filled || rowMask(kind, i, ps, pe) != filled {
						t.Errorf("sub %d pred %d kind %d: memoized mask %x, rowMask %x, filled row's support %x",
							si, i, kind, lazy, rowMask(kind, i, ps, pe), filled)
					}
				}
			}
		}
	})
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
// candidate batch. "arena" scores an event prepared outside a batch, which
// resolves no units, so it prices the scalar fill; "units" prices the
// resolved-unit kernel the broker's batch-prepared events use.
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
	b.Run("units", func(b *testing.B) {
		// Events prepared through the batch context resolve their unit
		// projections, so this prices the broker's kernel: masks first,
		// rows filled through RelatednessRowPreUnits only for candidates
		// that pass. The two events differ in one value, so every call
		// moves to a new term vector and refills the memo.
		ev2 := *ev
		ev2.Tuples = append([]event.Tuple(nil), ev.Tuples...)
		ev2.Tuples[1].Value = "laptop"
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		pes := [2]*PreparedEvent{m.PrepareEventInBatch(eb, ev), m.PrepareEventInBatch(eb, &ev2)}
		for _, q := range pes {
			scores = m.ScoreBatchInArena(ar, subs, q, scores[:0])
		}
		filled := ar.bb.computed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scores = m.ScoreBatchInArena(ar, subs, pes[i&1], scores[:0])
		}
		b.ReportMetric(float64(ar.bb.computed-filled)/float64(b.N), "rows/op")
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
