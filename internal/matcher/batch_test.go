package matcher

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/semantics"
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
// prepared through the batch context and once prepared outside it, each a
// different prepared event, so the memo is evicted between them — and
// requires exactly the floats the row-at-a-time ScorePrepared produces.
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
					t.Errorf("event %d sub %d (batch-prepared %v): arena %v != serial %v", ei, si, q != pe, out[si], want)
				}
			}
		}
	}
}

// checkArenaThreshold sweeps every event through one arena held to theta,
// prepared through the batch context and outside it as checkArenaBitIdentity
// does, and requires ScorePrepared's bits for every pair but those the
// theme-basis bound rejects, which must report RejectedByBound and score
// below theta, and those whose matrix left a value cell out, which may
// report RejectedByBound when they score below theta. Every pair's cap must
// be at least its score, rejected or not, and a matching pair the arena
// capped below theta must come back as RejectedByBound. It returns how many
// pairs reported RejectedByBound.
func checkArenaThreshold(t *testing.T, m *Matcher, subs []*PreparedSubscription, events []*PreparedEvent, theta float64) (rejected int) {
	t.Helper()
	eb := m.NewEventBatch()
	defer m.FinishEventBatch(eb)
	ar := m.NewBatchArena(eb)
	ar.SetThreshold(theta)
	var out []float64
	for ei, pe := range events {
		for _, q := range []*PreparedEvent{m.PrepareEventInBatch(eb, pe.Event()), pe} {
			out = m.ScoreBatchInArena(ar, subs, q, out[:0])
			for si, ps := range subs {
				want := m.ScorePrepared(ps, pe)
				switch got := out[si]; {
				case math.Float64bits(got) == math.Float64bits(want):
				case got == RejectedByBound && want < theta:
					rejected++
				default:
					t.Errorf("θ=%v event %d sub %d (batch-prepared %v): arena %v, ScorePrepared %v", theta, ei, si, q != pe, got, want)
				}
				c := m.scoreCap(ar.bb, ps, q, 0)
				if c < want {
					t.Errorf("event %d sub %d: cap %v below ScorePrepared %v", ei, si, c, want)
				}
				if want > 0 && ps.relaxed() <= ar.bb.certain && c < ar.bb.floor {
					t.Errorf("event %d sub %d: %d relaxed factors, too few to compute a cap, yet cap %v is below θ", ei, si, ps.relaxed(), c)
				}
				// A positive score passed every mask, so the arena computed
				// its cap whenever it has enough relaxed factors and a theme.
				capped := want > 0 && ps.relaxed() > ar.bb.certain && (ps.theme != nil || q.theme != nil) && c < ar.bb.floor
				if capped && out[si] != RejectedByBound {
					t.Errorf("θ=%v event %d sub %d: cap %v below θ, yet the arena scored %v", theta, ei, si, c, out[si])
				}
			}
		}
	}
	return rejected
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

// TestScoreBatchInArenaEveryConfiguration holds the bit-identity contract
// under every scoring configuration a space can take: the default, cosine
// distance (masks a superset of the row's support, see rowMask), basis
// filtering without idf recomputation, every cache off, and an active score
// memo that ScorePrepared reads and the row kernel does not — each in
// thematic and non-thematic mode, at θ = 0 and at two thresholds, where the
// theme-basis bound may reject a pair only if it scores below θ. The bound
// must reject some pair in every thematic configuration.
func TestScoreBatchInArenaEveryConfiguration(t *testing.T) {
	ix := space(t).Index()
	for _, c := range []struct {
		name  string
		space *semantics.Space
	}{
		{"euclidean", semantics.NewSpace(ix)},
		{"cosine", semantics.NewSpace(ix, semantics.WithDistance(semantics.Cosine))},
		{"no-idf", semantics.NewSpace(ix, semantics.WithIDFRecompute(false))},
		{"caches-off", semantics.NewSpace(ix, semantics.WithCaching(false))},
		{"precomputed", semantics.NewSpace(ix)},
	} {
		for _, thematic := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/thematic=%v", c.name, thematic), func(t *testing.T) {
				m := New(c.space, WithThematic(thematic))
				subs, events := batchPopulation(t, m)
				events = events[len(events)-4:] // three workload events, then the wide one
				if c.name == "caches-off" {
					// Every cell rebuilds both of its projections from the
					// index; the wide event's 70 columns would cost seconds
					// under -race, and the masks past 64 columns do not depend
					// on caching.
					events = events[:3]
				}
				if c.name == "precomputed" {
					var subTerms, eventTerms []string
					for _, ps := range subs {
						for i := range int(ps.np) {
							pd := ps.pred(i)
							subTerms = append(subTerms, m.row(pd.attrRow).term, m.row(pd.valueRow).term)
						}
					}
					for _, pe := range events {
						eventTerms = append(append(eventTerms, pe.attrs...), pe.values...)
					}
					c.space.PrecomputeScores(subTerms, eventTerms)
				}
				checkArenaBitIdentity(t, m, subs, events)
				rejected := 0
				for _, theta := range []float64{0.3, 0.6} {
					rejected += checkArenaThreshold(t, m, subs, events, theta)
				}
				if thematic && rejected == 0 {
					t.Error("the bound rejected no pair; the threshold leg is vacuous")
				}
			})
		}
	}
}

// TestArenaMemoFollowsPreparedEvent holds an arena's row memo to one
// prepared event. Within it the memo spans calls: one event scored in two
// candidate chunks through one arena fills exactly the rows one call fills,
// so no row is filled twice. Across batches FinishEventBatch makes every
// arena forget its event, because the next batch hands back the same
// *PreparedEvent for a different event, which must not be scored with the
// old event's rows.
func TestArenaMemoFollowsPreparedEvent(t *testing.T) {
	m := New(space(t))
	subs, events := batchPopulation(t, m)

	// score scores subs against one event through a fresh arena, one call
	// per chunk ending at each cut, and reports the rows the arena filled.
	score := func(prep func(*EventBatch) *PreparedEvent, cuts ...int) (out []float64, filled uint64) {
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		pe := prep(eb)
		lo := 0
		for _, hi := range append(cuts, len(subs)) {
			out = m.ScoreBatchInArena(ar, subs[lo:hi], pe, out)
			lo = hi
		}
		return out, ar.bb.computed
	}
	var filled uint64
	for ei, pe := range events[:4] {
		for name, prep := range map[string]func(*EventBatch) *PreparedEvent{
			"batch-prepared": func(eb *EventBatch) *PreparedEvent { return m.PrepareEventInBatch(eb, pe.Event()) },
			"unbatched":      func(*EventBatch) *PreparedEvent { return m.PrepareEvent(pe.Event()) },
		} {
			whole, wf := score(prep)
			split, sf := score(prep, len(subs)/2)
			if sf != wf {
				t.Errorf("event %d (%s): %d rows filled over two chunks, %d in one call", ei, name, sf, wf)
			}
			for si := range subs {
				if math.Float64bits(split[si]) != math.Float64bits(whole[si]) {
					t.Errorf("event %d (%s) sub %d: chunked %v != whole %v", ei, name, si, split[si], whole[si])
				}
			}
			filled += wf
		}
	}
	if filled == 0 {
		t.Fatal("no row filled; the chunk check is vacuous")
	}

	drainEventBatchFree()
	first, second := events[0], events[1]
	eb := m.NewEventBatch()
	ar := m.NewBatchArena(eb)
	old := m.PrepareEventInBatch(eb, first.Event())
	m.ScoreBatchInArena(ar, subs, old, nil)
	m.FinishEventBatch(eb)
	eb2 := m.NewEventBatch()
	defer m.FinishEventBatch(eb2)
	ar2 := m.NewBatchArena(eb2)
	pe := m.PrepareEventInBatch(eb2, second.Event())
	if eb2 != eb || ar2 != ar || pe != old {
		t.Fatal("the second batch did not recycle the first batch's context, arena and prepared event")
	}
	out := m.ScoreBatchInArena(ar2, subs, pe, nil)
	differ := 0
	for si, ps := range subs {
		want := m.ScorePrepared(ps, second)
		if math.Float64bits(out[si]) != math.Float64bits(want) {
			t.Errorf("recycled prepared event, sub %d: arena %v != ScorePrepared %v", si, out[si], want)
		}
		if want != m.ScorePrepared(ps, first) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two events score alike; the recycled event is unchecked")
	}
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

// FuzzRowSupport checks the lazy row fill over fuzzed term layouts. Bit 3
// of themes, which no theme choice reads, picks the distance. Every memo
// slot the arena holds after scoring is checked: its mask lies inside
// rowMask (under Euclidean distance it is rowMask); every cell the slot
// marks filled has termSimilarity's bits, and a nonzero one lies inside
// the mask; every other cell is 0. The check then fills the row whole, as
// no scorer does for a value row, and holds the mask against the support:
// under Euclidean distance, rowMask is exactly the filled row's support;
// under cosine distance, which is also 0 between nonzero units of disjoint
// support, the memoized mask and rowMask contain it. Under both, every
// arena score has ScorePrepared's bits. Bit 2 of themes, which no theme
// choice reads either, holds the arena to θ = 0.5, where a value cell is
// filled only under an attribute cell of at least θ and a pair may instead
// report RejectedByBound when it scores below θ.
func FuzzRowSupport(f *testing.F) {
	f.Add([]byte{0, 7, 3, 1, 9, 2, 2, 15, 0}, []byte{0, 8, 1, 9}, uint8(4), uint8(0x12))
	f.Add([]byte{5, 17, 3, 6, 19, 2, 3, 11, 1}, []byte{5, 0, 6}, uint8(69), uint8(0x31))
	f.Add([]byte{0, 20, 3, 13, 2, 30, 4, 4, 12}, []byte{13, 4}, uint8(79), uint8(0x23))
	f.Add([]byte{1, 1, 1, 2, 2, 2}, []byte{1, 2, 3, 4, 5, 6, 7}, uint8(64), uint8(0x00))
	f.Add([]byte{6, 15, 3, 0, 20, 2, 5, 18, 3, 1, 10, 19, 4, 7, 2, 2, 9, 1, 3, 14, 0}, []byte{4, 22, 9, 17, 41, 80}, uint8(11), uint8(0x10))
	f.Add([]byte{0, 9, 2, 5, 16, 3, 6, 2, 1, 13, 13, 19, 7, 20, 3, 4, 11, 2}, []byte{0, 6, 13, 40, 77}, uint8(5), uint8(0x21))
	f.Add([]byte{5, 17, 3, 6, 19, 2, 3, 11, 1}, []byte{5, 0, 6}, uint8(69), uint8(0x39))
	f.Add([]byte{6, 15, 3, 0, 20, 2, 5, 18, 3, 1, 10, 19, 4, 7, 2, 2, 9, 1, 3, 14, 0}, []byte{4, 22, 9, 17, 41, 80}, uint8(11), uint8(0x18))
	f.Add([]byte{0, 9, 3, 5, 16, 3, 6, 2, 1, 13, 13, 19, 7, 20, 3, 4, 11, 2}, []byte{0, 6, 13, 40, 77}, uint8(5), uint8(0x25))
	f.Add([]byte{6, 15, 3, 0, 20, 3, 5, 18, 3, 1, 10, 19, 4, 7, 2, 2, 9, 1, 3, 14, 0}, []byte{4, 22, 9, 17, 41, 80}, uint8(11), uint8(0x1c))
	euclidean := New(space(f))
	cosine := New(semantics.NewSpace(space(f).Index(), semantics.WithDistance(semantics.Cosine)))
	f.Fuzz(func(t *testing.T, subLayout, evLayout []byte, width, themes uint8) {
		m := euclidean
		if themes&8 != 0 {
			m = cosine
		}
		subs, ev := fuzzPairs(m, subLayout, evLayout, width, themes)
		if len(subs) == 0 {
			return
		}
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		theta := 0.0
		if themes&4 != 0 {
			theta = 0.5
			ar.SetThreshold(theta)
		}
		pe := m.PrepareEventInBatch(eb, ev)
		scores := m.ScoreBatchInArena(ar, subs, pe, nil)
		plain := m.PrepareEvent(ev)
		for si, ps := range subs {
			want := m.ScorePrepared(ps, plain)
			if got := scores[si]; math.Float64bits(got) != math.Float64bits(want) && !(theta > 0 && got == RejectedByBound && want < theta) {
				t.Errorf("θ=%v sub %d: arena %v, ScorePrepared %v", theta, si, got, want)
			}
		}
		bb := ar.bb
		for si, ps := range subs {
			for i := 0; i < int(ps.np); i++ {
				pd := ps.pred(i)
				for _, kind := range []rowKind{rowAttr, rowValue} {
					r := pd.attrRow
					if kind == rowValue {
						if !pd.eq() {
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
					lazy, rm := bb.dense[r].mask, rowMask(kind, pd, pe)
					if lazy&^rm != 0 || m == euclidean && lazy != rm {
						t.Errorf("sub %d pred %d kind %d: memoized mask %x, rowMask %x", si, i, kind, lazy, rm)
					}
					if bb.dense[r].off >= 0 {
						checkFilledCells(t, m, bb, kind, i, ps, pe)
					}
					m.fillRow(bb, kind, pd, ps.theme, pe, ^uint64(0))
					checkFilledCells(t, m, bb, kind, i, ps, pe)
					support := uint64(0)
					if len(pe.attrs) > 64 {
						support = ^uint64(0)
					}
					row := bb.arena[bb.dense[r].off:][:len(pe.attrs)]
					for j, c := range row {
						if c != 0 {
							support |= 1 << (uint(j) & 63)
						}
					}
					if m == euclidean && support != rm || support&^bb.dense[r].mask != 0 || support&^lazy != 0 {
						t.Errorf("sub %d pred %d kind %d: memoized mask %x, rowMask %x, filled row's support %x, mask after the fill %x",
							si, i, kind, lazy, rm, support, bb.dense[r].mask)
					}
				}
			}
		}
	})
}

// checkFilledCells holds the open row of predicate i's attribute or value
// term to its slot: every cell the slot marks filled has termSimilarity's
// bits and, when nonzero, lies inside the slot's mask; every other cell is 0.
func checkFilledCells(t *testing.T, m *Matcher, bb *batchBuf, kind rowKind, i int, ps *PreparedSubscription, pe *PreparedEvent) {
	t.Helper()
	r, _, approx := ps.pred(i).side(kind)
	term, evTerms := m.row(r).term, pe.attrs
	if kind == rowValue {
		evTerms = pe.values
	}
	slot := bb.dense[r]
	row := bb.arena[slot.off:][:len(evTerms)]
	for j, c := range row {
		bit := uint64(1) << (uint(j) & 63)
		if slot.filled&bit == 0 {
			if c != 0 {
				t.Errorf("pred %d kind %d column %d: unfilled cell holds %v", i, kind, j, c)
			}
			continue
		}
		if want := m.termSimilarity(term, approx, evTerms[j], ps.theme, pe.theme); math.Float64bits(c) != math.Float64bits(want) {
			t.Errorf("pred %d kind %d column %d: filled cell %v, termSimilarity %v", i, kind, j, c, want)
		}
		if c != 0 && slot.mask&bit == 0 {
			t.Errorf("pred %d kind %d column %d: filled cell %v outside the mask %x", i, kind, j, c, slot.mask)
		}
	}
}

// TestValueCellsFilledOnlyWhereAttrCarries scores one single-predicate
// candidate per arena and checks which cells of its value row the arena
// fills: only those under an attribute cell that can carry a match, besides
// the cells the support mask already decides (0 outside it, 1 at identity
// columns). At θ = 0 an exact attribute carries at its identity column
// alone, so the relaxed value row gets that one cell and nothing else. At
// θ > 0 a relaxed attribute carries where its cell is at least θ·(1 − 10⁻⁹).
func TestValueCellsFilledOnlyWhereAttrCarries(t *testing.T) {
	m := New(space(t))
	sub, ev := benchPair()
	pe := m.PrepareEvent(ev)
	// fill scores one candidate through a fresh arena held to theta and
	// returns its arena score, its attribute row and its value row's slot.
	fill := func(p event.Predicate, theta float64) (float64, []float64, rowSlot) {
		t.Helper()
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		ar.SetThreshold(theta)
		ps := m.PrepareSubscription(&event.Subscription{Theme: sub.Theme, Predicates: []event.Predicate{p}})
		sc := m.ScoreBatchInArena(ar, []*PreparedSubscription{ps}, pe, nil)[0]
		if want := m.ScorePrepared(ps, pe); math.Float64bits(sc) != math.Float64bits(want) {
			t.Fatalf("%+v at θ=%v: arena %v, ScorePrepared %v", p, theta, sc, want)
		}
		bb, pd := ar.bb, ps.pred(0)
		a := bb.dense[pd.attrRow]
		arow := append([]float64(nil), bb.arena[a.off:][:len(pe.attrs)]...)
		checkFilledCells(t, m, bb, rowAttr, 0, ps, pe)
		checkFilledCells(t, m, bb, rowValue, 0, ps, pe)
		return sc, arow, bb.dense[pd.valueRow]
	}
	// decided is the value row's cells the mask decides when the row opens.
	decided := func(v rowSlot, p event.Predicate) uint64 {
		d := ^v.mask
		for j, vo := range pe.valueOrds {
			if vo == m.space.TermOrd(p.Value) {
				d |= 1 << j
			}
		}
		return d
	}

	// θ = 0: "device" is exact, and column 1 is the event's "device".
	p := event.Predicate{Attr: "device", Value: "laptop", ApproxValue: true}
	sc, _, v := fill(p, 0)
	if sc <= 0 {
		t.Fatalf("%+v scored %v; the fill is unchecked", p, sc)
	}
	if got := v.filled &^ decided(v, p); got != 1<<1 {
		t.Errorf("θ = 0, exact attribute: value cells %b filled beyond the mask, want only the identity column %b", got, 1<<1)
	}
	if v.mask&^decided(v, p)&^(1<<1) == 0 {
		t.Error("the value row has no live cell outside the identity column; the θ = 0 case is vacuous")
	}

	// θ > 0: a relaxed "device" scores 1 at column 1 (both terms identical)
	// and relates to the other columns' attributes. θ is set at the largest
	// of those cells, so one of them carries and the others do not.
	p = event.Predicate{Attr: "device", Value: "computer", ApproxAttr: true, ApproxValue: true}
	_, arow, _ := fill(p, 0)
	theta := 0.0
	for _, c := range arow {
		if c < 1 {
			theta = max(theta, c)
		}
	}
	sc, arow, v = fill(p, theta)
	if sc < theta {
		t.Fatalf("%+v scored %v at θ=%v; the fill is unchecked", p, sc, theta)
	}
	var carry, below uint64
	for j, c := range arow {
		switch {
		case c >= theta*(1-boundSlack):
			carry |= 1 << j
		case c != 0:
			below |= 1 << j
		}
	}
	if got, want := v.filled&^decided(v, p), carry&^decided(v, p); got != want {
		t.Errorf("θ=%v, relaxed attribute: value cells %b filled beyond the mask, want those under carrying attribute cells %b", theta, got, want)
	}
	if carry&^decided(v, p) == 0 || below&^decided(v, p) == 0 {
		t.Errorf("θ=%v: attribute cells carrying %b, below θ %b; the θ > 0 case is vacuous", theta, carry, below)
	}
}

// TestScoreBatchZeroAlloc gates the warm columnar sweep at 0 allocs/op for
// the common ≤3-predicate population, same idiom as the ScorePrepared gate
// — both through a batch-prepared event and through one prepared outside a
// batch, and at a threshold whose theme-basis bound rejects some candidates.
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
		"unbatched":      m.PrepareEvent(ev),
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

	// Steady state at θ > 0: every call moves to the other event, so each
	// refills its rows and its event-side bounds in the warm arena.
	other := *ev
	other.Theme = []string{"energy policy"}
	pes := [2]*PreparedEvent{m.PrepareEventInBatch(eb, ev), m.PrepareEventInBatch(eb, &other)}
	ar.SetThreshold(0.9)
	for _, pe := range pes {
		scores = m.ScoreBatchInArena(ar, subs, pe, scores[:0])
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		scores = m.ScoreBatchInArena(ar, subs, pes[i&1], scores[:0])
		i++
	}); allocs != 0 {
		t.Errorf("warm ScoreBatchInArena at θ = 0.9: %v allocs/op, want 0", allocs)
	}
	rejected := 0
	for _, pe := range pes {
		for _, s := range m.ScoreBatchInArena(ar, subs, pe, scores[:0]) {
			if s == RejectedByBound {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the bound rejected no candidate; the θ > 0 case is vacuous")
	}
}

// TestArenaThresholdDoesNotOutliveBorrow recycles an arena that was held to
// θ > 0: NewBatchArena turns the bound off again, so the recycled arena
// scores every candidate with ScorePrepared's bits.
func TestArenaThresholdDoesNotOutliveBorrow(t *testing.T) {
	m := New(space(t))
	subs, events := batchPopulation(t, m)
	events = events[:4]
	drainEventBatchFree()
	eb := m.NewEventBatch()
	ar := m.NewBatchArena(eb)
	ar.SetThreshold(0.6)
	rejected := 0
	for _, pe := range events {
		for _, s := range m.ScoreBatchInArena(ar, subs, pe, nil) {
			if s == RejectedByBound {
				rejected++
			}
		}
	}
	m.FinishEventBatch(eb)
	if rejected == 0 {
		t.Fatal("the bound rejected no pair at θ = 0.6; the recycled arena is unchecked")
	}
	eb2 := m.NewEventBatch()
	defer m.FinishEventBatch(eb2)
	if ar2 := m.NewBatchArena(eb2); ar2 != ar {
		t.Fatal("the second batch did not recycle the first batch's arena")
	}
	for ei, pe := range events {
		out := m.ScoreBatchInArena(ar, subs, pe, nil)
		for si, ps := range subs {
			if want := m.ScorePrepared(ps, pe); math.Float64bits(out[si]) != math.Float64bits(want) {
				t.Errorf("recycled arena, event %d sub %d: %v != ScorePrepared %v", ei, si, out[si], want)
			}
		}
	}
}

// TestRecycledEventGetsFreshBounds hands a recycled *PreparedEvent the same
// tuples under another theme: its units, and so its event-side bounds,
// differ, and the arena must compute them afresh rather than serve the
// previous event's.
func TestRecycledEventGetsFreshBounds(t *testing.T) {
	m := New(space(t))
	subs, events := batchPopulation(t, m)
	first := events[0].Event()
	second := *first
	second.Theme = []string{"energy policy", "computer systems"}
	drainEventBatchFree()
	eb := m.NewEventBatch()
	ar := m.NewBatchArena(eb)
	ar.SetThreshold(0.3)
	old := m.PrepareEventInBatch(eb, first)
	m.ScoreBatchInArena(ar, subs, old, nil)
	m.FinishEventBatch(eb)

	eb2 := m.NewEventBatch()
	defer m.FinishEventBatch(eb2)
	ar2 := m.NewBatchArena(eb2)
	ar2.SetThreshold(0.3)
	pe := m.PrepareEventInBatch(eb2, &second)
	if eb2 != eb || ar2 != ar || pe != old {
		t.Fatal("the second batch did not recycle the first batch's context, arena and prepared event")
	}
	out := m.ScoreBatchInArena(ar2, subs, pe, nil)
	plain, stale := m.PrepareEvent(&second), m.PrepareEvent(first)
	for si, ps := range subs {
		switch got, want := out[si], m.ScorePrepared(ps, plain); {
		case math.Float64bits(got) == math.Float64bits(want):
		case got == RejectedByBound && want < 0.3:
		default:
			t.Errorf("recycled prepared event, sub %d: arena %v, ScorePrepared %v", si, got, want)
		}
	}
	differ := 0
	for _, ps := range subs {
		bounds := m.eventBounds(ar2.bb, ps.theme, pe)
		for j := range pe.attrUnits {
			want := m.space.RelatednessBound(&plain.attrUnits[j], ps.theme)
			if got := m.evBound(bounds, j, &pe.attrUnits[j], ps.theme); got != want {
				t.Errorf("sub theme %v column %d: event-side bound %v, want %v", ps.theme.Ord(), j, got, want)
			}
			if want != m.space.RelatednessBound(&stale.attrUnits[j], ps.theme) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("the two themes give equal event-side bounds; the recycled event is unchecked")
	}
}

// TestThresholdArenasShareBounds scores through several arenas at once, one
// goroutine and one batch context each, all held to a threshold and so all
// reading and writing the matcher's shared sub-side bound table and the
// compiled themes' basis bitmaps (run it under -race).
func TestThresholdArenasShareBounds(t *testing.T) {
	m := New(space(t))
	subs, events := batchPopulation(t, m)
	events = events[:6]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eb := m.NewEventBatch()
			defer m.FinishEventBatch(eb)
			ar := m.NewBatchArena(eb)
			ar.SetThreshold(0.3)
			for k := range events {
				pe := events[(k+w)%len(events)]
				out := m.ScoreBatchInArena(ar, subs, m.PrepareEventInBatch(eb, pe.Event()), nil)
				for si, ps := range subs {
					want := m.ScorePrepared(ps, pe)
					if got := out[si]; math.Float64bits(got) != math.Float64bits(want) && !(got == RejectedByBound && want < 0.3) {
						t.Errorf("worker %d sub %d: arena %v, ScorePrepared %v", w, si, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// drainEventBatchFree empties the batch-context free list, so the context
// finished next is the one borrowed next, with its arenas and prepared
// events.
func drainEventBatchFree() {
	for eventBatchFree.Get() != nil {
	}
}

// FuzzThemeBound checks the theme-basis bound over fuzzed term layouts,
// subscription and event themes (themes, as FuzzRowSupport), scoring
// configurations (cfg: bit 0 cosine distance, bit 1 no idf recomputation)
// and thresholds θ = theta/255: every pair's cap is at least its
// ScorePrepared score, every pair scoring at least θ keeps its bits through
// an arena held to θ, and every other pair reports its bits or
// RejectedByBound — below θ either way. A matching pair whose cap the arena
// skips for its few relaxed factors must have a cap of at least θ.
func FuzzThemeBound(f *testing.F) {
	f.Add([]byte{0, 7, 3, 1, 9, 2, 2, 15, 0}, []byte{0, 8, 1, 9}, uint8(4), uint8(0x12), uint8(0), uint8(128))
	f.Add([]byte{5, 17, 3, 6, 19, 2, 3, 11, 1}, []byte{5, 0, 6}, uint8(69), uint8(0x31), uint8(1), uint8(100))
	f.Add([]byte{0, 20, 3, 13, 2, 30, 4, 4, 12}, []byte{13, 4}, uint8(79), uint8(0x23), uint8(2), uint8(200))
	f.Add([]byte{1, 1, 1, 2, 2, 2}, []byte{1, 2, 3, 4, 5, 6, 7}, uint8(64), uint8(0x00), uint8(3), uint8(60))
	f.Add([]byte{6, 15, 3, 0, 20, 2, 5, 18, 3, 1, 10, 19, 4, 7, 2, 2, 9, 1, 3, 14, 0}, []byte{4, 22, 9, 17, 41, 80}, uint8(11), uint8(0x10), uint8(0), uint8(160))
	f.Add([]byte{0, 9, 2, 5, 16, 3, 6, 2, 1, 13, 13, 19, 7, 20, 3, 4, 11, 2}, []byte{0, 6, 13, 40, 77}, uint8(5), uint8(0x21), uint8(1), uint8(40))
	f.Add([]byte{7, 8, 3, 15, 16, 3, 2, 13, 3}, []byte{8, 9, 16, 17, 12}, uint8(9), uint8(0x32), uint8(0), uint8(150))
	ix := space(f).Index()
	var ms [4]*Matcher
	for c := range ms {
		var opts []semantics.Option
		if c&1 != 0 {
			opts = append(opts, semantics.WithDistance(semantics.Cosine))
		}
		if c&2 != 0 {
			opts = append(opts, semantics.WithIDFRecompute(false))
		}
		ms[c] = New(semantics.NewSpace(ix, opts...))
	}
	f.Fuzz(func(t *testing.T, subLayout, evLayout []byte, width, themes, cfg, theta uint8) {
		m := ms[cfg&3]
		th := float64(theta) / 255
		subs, ev := fuzzPairs(m, subLayout, evLayout, width, themes)
		if len(subs) == 0 {
			return
		}
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		ar.SetThreshold(th)
		pe := m.PrepareEventInBatch(eb, ev)
		scores := m.ScoreBatchInArena(ar, subs, pe, nil)
		plain := m.PrepareEvent(ev)
		for si, ps := range subs {
			want := m.ScorePrepared(ps, plain)
			c := m.scoreCap(ar.bb, ps, pe, 0)
			if c < want {
				t.Errorf("sub %d: cap %v below ScorePrepared %v", si, c, want)
			}
			if want > 0 && ps.relaxed() <= ar.bb.certain && c < ar.bb.floor {
				t.Errorf("sub %d: %d relaxed factors, too few to compute a cap, yet cap %v is below θ", si, ps.relaxed(), c)
			}
			switch got := scores[si]; {
			case math.Float64bits(got) == math.Float64bits(want):
			case got == RejectedByBound && want < th:
			default:
				t.Errorf("θ=%v sub %d: arena %v, ScorePrepared %v", th, si, got, want)
			}
		}
	})
}

// BenchmarkScoreBatchInArena measures the columnar arena sweep against the
// equivalent serial ScorePrepared loop over the same 64-subscription
// candidate batch. Both arena sub-benches price the one row kernel — whole
// attribute rows, and value cells filled on demand under each nonzero
// attribute cell (the arenas set no threshold) — and alternate two events
// that differ in one value, so every call moves to the other prepared
// event, evicts the memo and refills it: "arena" prepares the events
// outside a batch, "units" through one, as the broker's publish path does,
// and reports the rows it opens per call.
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
	ev2 := *ev
	ev2.Tuples = append([]event.Tuple(nil), ev.Tuples...)
	ev2.Tuples[1].Value = "laptop"
	pe := m.PrepareEvent(ev)
	b.Run("arena", func(b *testing.B) {
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		pes := [2]*PreparedEvent{pe, m.PrepareEvent(&ev2)}
		for _, q := range pes {
			scores = m.ScoreBatchInArena(ar, subs, q, scores[:0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scores = m.ScoreBatchInArena(ar, subs, pes[i&1], scores[:0])
		}
	})
	b.Run("units", func(b *testing.B) {
		// The broker's path: masks first, rows opened and cells filled
		// through RelatednessRowPreUnits only for candidates that pass.
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
