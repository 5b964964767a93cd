package broker

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/subindex"
	"thematicep/internal/text"
)

type namedMatcher struct {
	name string
	m    *matcher.Matcher
}

// viewModes returns one matcher per scoring configuration the pruning view
// must be sound under. The view is decided by the same Space question in
// all of them. The cosine and precomputed spaces are fresh: a space's
// distance is fixed at construction, and PrecomputeScores turns the score
// cache on for good.
func viewModes(t *testing.T, subs []*event.Subscription, events []*event.Event) []namedMatcher {
	t.Helper()
	ix := evalSpace(t).Index()
	var subTerms, eventTerms []string
	for _, s := range subs {
		for _, p := range s.Predicates {
			subTerms = append(subTerms, p.Attr, p.Value)
		}
	}
	for _, e := range events {
		for _, tu := range e.Tuples {
			eventTerms = append(eventTerms, tu.Attr, tu.Value)
		}
	}
	precomputed := semantics.NewSpace(ix)
	precomputed.PrecomputeScores(subTerms, eventTerms)
	return []namedMatcher{
		{"euclidean", matcher.New(evalSpace(t))},
		{"nonthematic", matcher.New(evalSpace(t), matcher.WithThematic(false))},
		{"cosine", matcher.New(semantics.NewSpace(ix, semantics.WithDistance(semantics.Cosine)))},
		{"precomputed", matcher.New(precomputed, matcher.WithThematic(false))},
	}
}

// candidateSet enumerates the ids an index yields for one event.
func candidateSet(ix *subindex.Index[int], e *event.Event) map[int]bool {
	set := make(map[int]bool)
	ix.Candidates(e, func(i int) { set[i] = true })
	return set
}

// TestPruningViewSound is the soundness property of the pruning view: over
// seeded evaluation workloads, in every scoring mode, every (subscription,
// event) pair that scores above zero is a candidate of an index built from
// the views. A subscription whose view is itself is enumerated exactly as
// its raw form, and preparing never modifies the subscription.
func TestPruningViewSound(t *testing.T) {
	for _, seed := range []int64{3, 42, 7} {
		subs, events := mixedThemeWorkload(t, seed)
		before := make([][]event.Predicate, len(subs))
		for i, s := range subs {
			before[i] = slices.Clone(s.Predicates)
		}
		for _, mode := range viewModes(t, subs, events) {
			m := mode.m
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mode.name), func(t *testing.T) {
				views, raw := subindex.New[int](), subindex.New[int]()
				prepared := make([]*matcher.PreparedSubscription, len(subs))
				filtered := 0
				for i, s := range subs {
					prepared[i] = m.PrepareSubscription(s)
					v := prepared[i].PruningView()
					if v != s {
						filtered++
					}
					views.Add(s.ID, v, i)
					raw.Add(s.ID, s, i)
					if !reflect.DeepEqual(s.Predicates, before[i]) {
						t.Fatalf("sub %s modified by preparation", s.ID)
					}
				}
				if filtered == 0 {
					t.Fatal("no subscription has a filtered relaxed term; the property is vacuous")
				}
				for _, e := range events {
					pe := m.PrepareEvent(e)
					got, rawGot := candidateSet(views, e), candidateSet(raw, e)
					for i, s := range subs {
						if sc := m.ScorePrepared(prepared[i], pe); sc > 0 && !got[i] {
							t.Errorf("sub %s scores %v against event %s but was pruned", s.ID, sc, e.ID)
						}
						if prepared[i].PruningView() == s && got[i] != rawGot[i] {
							t.Errorf("unfiltered sub %s: candidate %v from its view, %v raw", s.ID, got[i], rawGot[i])
						}
					}
				}
			})
		}
	}
}

// filteredTerms finds, in the evaluation space, a term T whose projection
// is zero under theme A but not under theme B, and a term U projecting to
// a non-zero vector under both: the vocabulary of the explicit view cases.
func filteredTerms(t *testing.T) (T, U string, A, B []string) {
	t.Helper()
	space := evalSpace(t)
	subs, events := mixedThemeWorkload(t, 3)
	var terms []string
	var themes [][]string
	for _, s := range subs {
		for _, p := range s.Predicates {
			terms = append(terms, text.Canonical(p.Attr), text.Canonical(p.Value))
		}
		if len(s.Theme) > 0 {
			themes = append(themes, s.Theme)
		}
	}
	for _, e := range events {
		if len(e.Theme) > 0 {
			themes = append(themes, e.Theme)
		}
	}
	for _, a := range themes {
		ca := space.Compile(a)
		for _, b := range themes {
			cb := space.Compile(b)
			for _, u := range terms {
				if space.Filtered(u, ca) || space.Filtered(u, cb) {
					continue
				}
				for _, tt := range terms {
					if tt != u && space.Filtered(tt, ca) && !space.Filtered(tt, cb) {
						return tt, u, a, b
					}
				}
			}
		}
	}
	t.Fatal("evaluation space holds no term filtered under one theme and not another")
	return
}

// TestPruningViewCases walks the view's rules one subscription at a time:
// a filtered ~attr becomes a presence requirement, a filtered ~value under
// equality a pair requirement, the decision follows the subscription's
// theme, and an unfiltered subscription's view is itself.
func TestPruningViewCases(t *testing.T) {
	T, U, A, B := filteredTerms(t)
	m := thematicMatcher(t)
	ev := func(id string, tuples ...event.Tuple) *event.Event {
		return &event.Event{ID: id, Theme: A, Tuples: tuples}
	}
	// candidate reports whether the index built from sub's view yields it
	// for e, and whether the one built from sub as written does.
	candidate := func(sub *event.Subscription, e *event.Event) (view, raw bool) {
		vi, ri := subindex.New[int](), subindex.New[int]()
		vi.Add(sub.ID, m.PrepareSubscription(sub).PruningView(), 0)
		ri.Add(sub.ID, sub, 0)
		return len(candidateSet(vi, e)) == 1, len(candidateSet(ri, e)) == 1
	}

	t.Run("filtered attr", func(t *testing.T) {
		sub := &event.Subscription{ID: "a", Theme: A, Predicates: []event.Predicate{
			{Attr: T, Value: U, ApproxAttr: true, ApproxValue: true},
		}}
		lacking := ev("lacking", event.Tuple{Attr: U, Value: U})
		if view, raw := candidate(sub, lacking); view || !raw {
			t.Errorf("event lacking %q: view candidate %v, raw %v; want false, true", T, view, raw)
		}
		carrying := ev("carrying", event.Tuple{Attr: T, Value: U})
		if view, _ := candidate(sub, carrying); !view {
			t.Errorf("event carrying %q pruned", T)
		}
		if sc := m.Score(sub, carrying); sc != 1 {
			t.Errorf("identity score %v, want 1", sc)
		}
	})

	t.Run("filtered value", func(t *testing.T) {
		sub := &event.Subscription{ID: "v", Theme: A, Predicates: []event.Predicate{
			{Attr: U, Value: T, ApproxValue: true},
		}}
		other := ev("other", event.Tuple{Attr: U, Value: U})
		if view, raw := candidate(sub, other); view || !raw {
			t.Errorf("(%q, %q) event: view candidate %v, raw %v; want false, true", U, U, view, raw)
		}
		pair := ev("pair", event.Tuple{Attr: U, Value: T})
		if view, _ := candidate(sub, pair); !view {
			t.Errorf("(%q, %q) event pruned", U, T)
		}
		if sc := m.Score(sub, pair); sc != 1 {
			t.Errorf("identity score %v, want 1", sc)
		}
	})

	t.Run("per theme", func(t *testing.T) {
		pred := []event.Predicate{{Attr: T, Value: U, ApproxAttr: true, ApproxValue: true}}
		underA := &event.Subscription{ID: "A", Theme: A, Predicates: pred}
		underB := &event.Subscription{ID: "B", Theme: B, Predicates: pred}
		lacking := ev("lacking", event.Tuple{Attr: U, Value: U})
		if view, _ := candidate(underA, lacking); view {
			t.Errorf("under %v (%q filtered): candidate, want pruned", A, T)
		}
		if view, _ := candidate(underB, lacking); !view {
			t.Errorf("under %v (%q not filtered): pruned, want candidate", B, T)
		}
		if v := m.PrepareSubscription(underB).PruningView(); v != underB {
			t.Errorf("under %v: view is a copy, want the subscription itself", B)
		}
	})
}
