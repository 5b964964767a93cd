package matcher

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"thematicep/internal/assign"
	"thematicep/internal/event"
	"thematicep/internal/semantics"
	"thematicep/internal/workload"
)

// Property: the small-case exhaustive solver agrees with the Hungarian
// solver over log weights for every matrix shape it handles.
func TestBestSmallMatchesHungarian(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(8)
		sim := make([][]float64, n)
		for i := range sim {
			sim[i] = make([]float64, m)
			for j := range sim[i] {
				if rng.Intn(4) == 0 {
					sim[i][j] = 0
				} else {
					sim[i][j] = rng.Float64()
				}
			}
		}
		cols, score := bestSmall(sim)
		sol, feasible := assign.Best(logWeights(sim))
		var hungarianScore float64
		if feasible {
			hungarianScore = 1.0
			positive := true
			for i, j := range sol.Cols {
				hungarianScore *= sim[i][j]
				if sim[i][j] == 0 {
					positive = false
				}
			}
			if !positive {
				hungarianScore = 0
			}
		}
		if math.Abs(score-hungarianScore) > 1e-9 {
			t.Fatalf("trial %d: bestSmall=%v (cols %v), hungarian=%v (sim=%v)",
				trial, score, cols, hungarianScore, sim)
		}
		if score > 0 {
			// Verify injectivity over the n used entries of the fixed array.
			seen := make(map[int]bool)
			for _, c := range cols[:n] {
				if seen[c] {
					t.Fatalf("trial %d: duplicate column %d", trial, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestPreparedMatchesUnprepared(t *testing.T) {
	m := New(space(t))
	sub, ev := paperPair()
	ps := m.PrepareSubscription(sub)
	pe := m.PrepareEvent(ev)
	if ps.Subscription() != sub || pe.Event() != ev {
		t.Fatal("prepared accessors wrong")
	}
	direct, ok1 := m.Match(sub, ev)
	prepared, ok2 := m.MatchPrepared(ps, pe)
	if ok1 != ok2 || math.Abs(direct.Score-prepared.Score) > 1e-12 {
		t.Errorf("prepared %v/%v vs direct %v/%v", prepared.Score, ok2, direct.Score, ok1)
	}
	if got := m.ScorePrepared(ps, pe); math.Abs(got-direct.Score) > 1e-12 {
		t.Errorf("ScorePrepared = %v, want %v", got, direct.Score)
	}
}

// Subscriptions with more than three predicates exercise the Hungarian
// path; results must agree with brute force on the similarity matrix.
func TestMatchManyPredicatesUsesHungarianCorrectly(t *testing.T) {
	m := New(space(t))
	sub := &event.Subscription{
		Theme: []string{"energy policy", "computer systems", "city planning"},
		Predicates: []event.Predicate{
			{Attr: "type", Value: "increased energy usage event", ApproxAttr: true, ApproxValue: true},
			{Attr: "device", Value: "laptop", ApproxAttr: true, ApproxValue: true},
			{Attr: "room", Value: "room 112", ApproxAttr: true, ApproxValue: true},
			{Attr: "zone", Value: "building", ApproxAttr: true, ApproxValue: true},
		},
	}
	ev := &event.Event{
		Theme: []string{"energy policy", "information technology", "city planning"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: "increased energy consumption event"},
			{Attr: "device", Value: "computer"},
			{Attr: "room", Value: "room 112"},
			{Attr: "zone", Value: "building"},
			{Attr: "city", Value: "galway"},
		},
	}
	mp, ok := m.Match(sub, ev)
	if !ok {
		t.Fatal("no match")
	}
	// Brute force the best product over the similarity matrix.
	sim := m.SimilarityMatrix(sub, ev)
	best := bruteBestProduct(sim)
	if math.Abs(mp.Score-best) > 1e-9 {
		t.Errorf("score %v, brute force %v", mp.Score, best)
	}
}

func bruteBestProduct(sim [][]float64) float64 {
	n := len(sim)
	m := len(sim[0])
	used := make([]bool, m)
	best := 0.0
	var rec func(i int, prod float64)
	rec = func(i int, prod float64) {
		if i == n {
			if prod > best {
				best = prod
			}
			return
		}
		for j := 0; j < m; j++ {
			if used[j] || sim[i][j] == 0 {
				continue
			}
			used[j] = true
			rec(i+1, prod*sim[i][j])
			used[j] = false
		}
	}
	rec(0, 1)
	return best
}

// Only ~-relaxed terms are ever dotted, so only their rows keep a unit
// projection: an all-exact subscription's rows carry none and a mixed one's
// relaxed rows alone do — under cosine distance as under Euclidean, since
// both score through unit projections.
func TestPrepareSubscriptionResolvesOnlyRelaxedUnits(t *testing.T) {
	cosine := semantics.NewSpace(space(t).Index(), semantics.WithDistance(semantics.Cosine))
	for _, s := range []*semantics.Space{space(t), cosine} {
		m := New(s)
		exact := m.PrepareSubscription(&event.Subscription{Predicates: []event.Predicate{
			{Attr: "device", Value: "laptop"}, {Attr: "room", Value: "room 112"},
		}})
		for i := range int(exact.np) {
			pd := exact.pred(i)
			if a, v := m.row(pd.attrRow).unit, m.row(pd.valueRow).unit; a != nil || v != nil {
				t.Errorf("all-exact predicate %d: attribute unit %v, value unit %v, want none", i, a, v)
			}
		}
		mixed := m.PrepareSubscription(&event.Subscription{Predicates: []event.Predicate{
			{Attr: "device", Value: "laptop", ApproxValue: true}, {Attr: "room", Value: "room 112"},
		}})
		p0, p1 := mixed.pred(0), mixed.pred(1)
		if m.row(p0.attrRow).unit != nil || m.row(p1.attrRow).unit != nil || m.row(p1.valueRow).unit != nil {
			t.Errorf("mixed: an exact term's row keeps a unit")
		}
		if u := m.row(p0.valueRow).unit; u == nil || u.IsZero() {
			t.Errorf("mixed: relaxed value row's unit %v, want a nonzero one", u)
		}
	}
}

// TestPreparePathsAgree prepares random events three ways — PrepareEvent,
// and PrepareEventInBatch on a fresh context and on a recycled one that a
// matcher over another space used last — and requires the same canonical
// terms, ordinals, theme, units and live columns from each. The other space
// saw the vocabulary in another order, so its ordinals differ: nothing of
// it may survive in the recycled context. Spellings vary in case and
// spacing, so several raw terms share each canonical form.
func TestPreparePathsAgree(t *testing.T) {
	ix := space(t).Index()
	m, other := New(semantics.NewSpace(ix)), New(semantics.NewSpace(ix))
	w := workload.Generate(workload.Config{Seed: 29, SeedEvents: 24, ExpandedPerSeed: 3, Subscriptions: 1, MaxPredicates: 1})
	w.ApplyThemes(w.SampleThemes(rand.New(rand.NewSource(3)), 2, 1))
	rng := rand.New(rand.NewSource(31))
	respell := func(s string) string {
		switch rng.Intn(3) {
		case 0:
			return strings.ToUpper(s)
		case 1:
			return "  " + strings.ReplaceAll(s, " ", "   ") + " "
		}
		return s
	}
	var events []*event.Event
	for _, e := range w.Events {
		ev := &event.Event{Theme: slices.Clone(e.Theme)}
		if rng.Intn(4) == 0 {
			ev.Theme = nil
		}
		for _, tu := range e.Tuples {
			ev.Tuples = append(ev.Tuples, event.Tuple{Attr: respell(tu.Attr), Value: respell(tu.Value)})
		}
		events = append(events, ev)
	}

	drainEventBatchFree()
	fresh := m.NewEventBatch()
	defer m.FinishEventBatch(fresh)
	used := other.NewEventBatch()
	for i := range events {
		other.PrepareEventInBatch(used, events[len(events)-1-i])
	}
	other.FinishEventBatch(used)
	recycled := m.NewEventBatch()
	defer m.FinishEventBatch(recycled)
	if recycled != used {
		t.Fatal("the matcher did not recycle the other matcher's context")
	}
	for i, e := range events {
		want := m.PrepareEvent(e)
		for name, got := range map[string]*PreparedEvent{
			"fresh":    m.PrepareEventInBatch(fresh, e),
			"recycled": m.PrepareEventInBatch(recycled, e),
		} {
			switch {
			case !slices.Equal(got.attrs, want.attrs) || !slices.Equal(got.values, want.values):
				t.Errorf("event %d, %s context: terms %q %q, want %q %q", i, name, got.attrs, got.values, want.attrs, want.values)
			case !slices.Equal(got.attrOrds, want.attrOrds) || !slices.Equal(got.valueOrds, want.valueOrds):
				t.Errorf("event %d, %s context: ordinals %v %v, want %v %v", i, name, got.attrOrds, got.valueOrds, want.attrOrds, want.valueOrds)
			case got.theme != want.theme:
				t.Errorf("event %d, %s context: theme %v, want %v", i, name, got.theme, want.theme)
			case !reflect.DeepEqual(got.attrUnits, want.attrUnits) || !reflect.DeepEqual(got.valueUnits, want.valueUnits):
				t.Errorf("event %d, %s context: units differ", i, name)
			case got.attrLive != want.attrLive || got.valueLive != want.valueLive:
				t.Errorf("event %d, %s context: live %x %x, want %x %x", i, name, got.attrLive, got.valueLive, want.attrLive, want.valueLive)
			}
		}
	}
}

// TestPrepareThemeKeysDoNotAlias prepares an event whose one tag holds byte
// 0x01, then, through the same recycled context, one whose two tags that
// byte glued: the second must get its own two-tag theme.
func TestPrepareThemeKeysDoNotAlias(t *testing.T) {
	m := New(semantics.NewSpace(space(t).Index()))
	tuples := []event.Tuple{{Attr: "type", Value: "spike"}}
	drainEventBatchFree()
	eb := m.NewEventBatch()
	m.PrepareEventInBatch(eb, &event.Event{Theme: []string{"energy\x01transport"}, Tuples: tuples})
	m.FinishEventBatch(eb)
	eb2 := m.NewEventBatch()
	defer m.FinishEventBatch(eb2)
	if eb2 != eb {
		t.Fatal("the second batch did not recycle the first batch's context")
	}
	pe := m.PrepareEventInBatch(eb2, &event.Event{Theme: []string{"energy", "transport"}, Tuples: tuples})
	if pe.theme.Key != "energy|transport" {
		t.Errorf("theme key %q, want \"energy|transport\"", pe.theme.Key)
	}
}

// TestResetCachesKeepsPreparedScores empties the space's caches between
// preparing a population and scoring it. The scalar path resolves every unit
// through the emptied caches again, and the arena dots the row table's copies
// of the subscription units against events prepared after the reset: both
// must keep the bits they had before, and agree with each other.
func TestResetCachesKeepsPreparedScores(t *testing.T) {
	m := New(semantics.NewSpace(space(t).Index()))
	subs, events := batchPopulation(t, m)
	score := func() (scalar, arena [][]float64) {
		eb := m.NewEventBatch()
		defer m.FinishEventBatch(eb)
		ar := m.NewBatchArena(eb)
		for _, pe := range events {
			q := m.PrepareEvent(pe.Event())
			row := make([]float64, len(subs))
			for si, ps := range subs {
				row[si] = m.ScorePrepared(ps, q)
			}
			scalar = append(scalar, row)
			arena = append(arena, m.ScoreBatchInArena(ar, subs, q, nil))
		}
		return scalar, arena
	}
	wantScalar, wantArena := score()
	m.space.ResetCaches()
	if units, _ := m.space.CacheStats(); units != 0 {
		t.Fatalf("%d units cached after the reset", units)
	}
	gotScalar, gotArena := score()
	positive := 0
	for ei := range events {
		for si := range subs {
			want := wantScalar[ei][si]
			for name, got := range map[string]float64{
				"scalar before": want, "arena before": wantArena[ei][si],
				"scalar after": gotScalar[ei][si], "arena after": gotArena[ei][si],
			} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("event %d sub %d: %s %v, want %v", ei, si, name, got, want)
				}
			}
			if want > 0 && want < 1 {
				positive++
			}
		}
	}
	if positive == 0 {
		t.Fatal("no pair scored strictly between 0 and 1; the relaxed rows are unchecked")
	}
}
