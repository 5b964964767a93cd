package subindex

import (
	"fmt"
	"sort"
	"testing"

	"thematicep/internal/event"
)

func collect(ix *Index[string], e *event.Event) ([]string, int, int) {
	var got []string
	c, p := ix.Candidates(e, func(id string) { got = append(got, id) })
	sort.Strings(got)
	return got, c, p
}

func ev(tuples ...event.Tuple) *event.Event {
	return &event.Event{Theme: []string{"energy policy"}, Tuples: tuples}
}

func TestExactAttrPruning(t *testing.T) {
	ix := New[string]()
	// Exact attribute "type": the event must carry a type tuple.
	ix.Add("s1", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "Type", Value: "parking event", ApproxValue: true},
	}}, "s1")
	// Approximate attribute: always a candidate.
	ix.Add("s2", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "device", Value: "laptop", ApproxAttr: true, ApproxValue: true},
	}}, "s2")

	got, c, p := collect(ix, ev(event.Tuple{Attr: "type", Value: "x"}))
	if fmt.Sprint(got) != "[s1 s2]" || c != 2 || p != 0 {
		t.Errorf("type event: got %v (c=%d p=%d)", got, c, p)
	}
	got, c, p = collect(ix, ev(event.Tuple{Attr: "room", Value: "112"}))
	if fmt.Sprint(got) != "[s2]" || c != 1 || p != 1 {
		t.Errorf("room event: got %v (c=%d p=%d)", got, c, p)
	}
}

func TestExactValueRequirement(t *testing.T) {
	ix := New[string]()
	ix.Add("eq", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "type", Value: "Parking Event"}, // exact attr and value
	}}, "eq")

	if got, _, _ := collect(ix, ev(event.Tuple{Attr: "type", Value: "parking event"})); fmt.Sprint(got) != "[eq]" {
		t.Errorf("canonical-equal value: got %v", got)
	}
	if got, _, p := collect(ix, ev(event.Tuple{Attr: "type", Value: "energy event"})); len(got) != 0 || p != 1 {
		t.Errorf("mismatched value: got %v, pruned %d", got, p)
	}
}

func TestAllExactAttrsRequired(t *testing.T) {
	ix := New[string]()
	// Two exact attrs; the anchor posting files the sub under only one
	// term, but candidate verification must check the full requirement row.
	ix.Add("s", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "type", Value: "v", ApproxValue: true},
		{Attr: "room", Value: "v", ApproxValue: true},
	}}, "s")

	both := ev(event.Tuple{Attr: "type", Value: "a"}, event.Tuple{Attr: "room", Value: "b"})
	if got, _, _ := collect(ix, both); fmt.Sprint(got) != "[s]" {
		t.Errorf("both attrs present: got %v", got)
	}
	// Witness present but second exact attr missing: pruned. The second
	// tuple keeps the event feasible (2 tuples for 2 predicates).
	one := ev(event.Tuple{Attr: "type", Value: "a"}, event.Tuple{Attr: "zone", Value: "b"})
	if got, _, p := collect(ix, one); len(got) != 0 || p != 1 {
		t.Errorf("missing exact attr: got %v, pruned %d", got, p)
	}
}

func TestInfeasiblePredicateCount(t *testing.T) {
	ix := New[string]()
	ix.Add("wide", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "a", Value: "v", ApproxAttr: true, ApproxValue: true},
		{Attr: "b", Value: "v", ApproxAttr: true, ApproxValue: true},
	}}, "wide")

	// One tuple cannot satisfy two predicates injectively, even for an
	// approximate-only subscription.
	if got, _, p := collect(ix, ev(event.Tuple{Attr: "x", Value: "y"})); len(got) != 0 || p != 1 {
		t.Errorf("infeasible: got %v, pruned %d", got, p)
	}
	two := ev(event.Tuple{Attr: "x", Value: "y"}, event.Tuple{Attr: "z", Value: "w"})
	if got, _, _ := collect(ix, two); fmt.Sprint(got) != "[wide]" {
		t.Errorf("feasible: got %v", got)
	}
}

func TestComparisonOpsArePresenceOnly(t *testing.T) {
	ix := New[string]()
	ix.Add("cmp", &event.Subscription{Predicates: []event.Predicate{
		{Attr: "temperature", Value: "30", Op: event.OpGt},
	}}, "cmp")

	// The index only requires the attribute; the matcher evaluates the
	// comparison itself, so a failing comparison is still a candidate.
	if got, _, _ := collect(ix, ev(event.Tuple{Attr: "temperature", Value: "10"})); fmt.Sprint(got) != "[cmp]" {
		t.Errorf("comparison candidate: got %v", got)
	}
	if got, _, p := collect(ix, ev(event.Tuple{Attr: "humidity", Value: "10"})); len(got) != 0 || p != 1 {
		t.Errorf("missing comparison attr: got %v, pruned %d", got, p)
	}
}

func TestRemoveAndReplace(t *testing.T) {
	ix := New[string]()
	sub := &event.Subscription{
		Theme:      []string{"energy policy"},
		Predicates: []event.Predicate{{Attr: "type", Value: "v", ApproxValue: true}},
	}
	ix.Add("a", sub, "a-v1")
	ix.Add("b", sub, "b")
	ix.Add("a", sub, "a-v2") // replace keeps a single filing
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	got, _, _ := collect(ix, ev(event.Tuple{Attr: "type", Value: "x"}))
	if fmt.Sprint(got) != "[a-v2 b]" {
		t.Errorf("after replace: got %v", got)
	}

	ix.Remove("a")
	ix.Remove("missing") // no-op
	got, _, _ = collect(ix, ev(event.Tuple{Attr: "type", Value: "x"}))
	if fmt.Sprint(got) != "[b]" || ix.Len() != 1 {
		t.Errorf("after remove: got %v, len %d", got, ix.Len())
	}
	ix.Remove("b")
	if ix.Len() != 0 || ix.Themes() != 0 {
		t.Errorf("empty index: len %d themes %d", ix.Len(), ix.Themes())
	}
}

// TestRegisteredAlone checks that a subscription added with a nil view is
// in the registry (Get, Len, AppendAll, Remove, Clear) but never a
// candidate, costs no term or group, and can be replaced by a filed one and
// back.
func TestRegisteredAlone(t *testing.T) {
	ix := New[string]()
	sub := &event.Subscription{Predicates: []event.Predicate{{Attr: "type", Value: "v"}}}
	ix.Add("a", nil, "a")
	ix.Add("b", sub, "b")
	if p, ok := ix.Get("a"); !ok || p != "a" || ix.Len() != 2 {
		t.Fatalf("Get(a) = %q, %v; Len = %d", p, ok, ix.Len())
	}
	if st := ix.Stats(); st.Terms != 1 || st.Themes != 1 {
		t.Errorf("stats %+v: the unfiled registration interned or grouped something", st)
	}
	got, c, p := collect(ix, ev(event.Tuple{Attr: "type", Value: "v"}))
	if fmt.Sprint(got) != "[b]" || c != 1 || p != 1 {
		t.Errorf("got %v (c=%d p=%d), want [b] with a pruned", got, c, p)
	}

	ix.Add("a", sub, "a-filed")
	ix.Add("b", nil, "b-alone")
	got, _, _ = collect(ix, ev(event.Tuple{Attr: "type", Value: "v"}))
	if fmt.Sprint(got) != "[a-filed]" {
		t.Errorf("after swapping filings: got %v", got)
	}
	all := ix.AppendAll(nil)
	sort.Strings(all)
	if fmt.Sprint(all) != "[a-filed b-alone]" {
		t.Errorf("AppendAll = %v", all)
	}
	if p, ok := ix.Remove("b"); !ok || p != "b-alone" || ix.Len() != 1 {
		t.Errorf("Remove(b) = %q, %v; Len = %d", p, ok, ix.Len())
	}
	if _, ok := ix.Remove("b"); ok {
		t.Error("a second Remove(b) found it")
	}
	ix.Add("c", nil, "c")
	cleared := ix.Clear()
	sort.Strings(cleared)
	if fmt.Sprint(cleared) != "[a-filed c]" || ix.Len() != 0 || ix.Themes() != 0 {
		t.Errorf("Clear = %v, then Len %d Themes %d", cleared, ix.Len(), ix.Themes())
	}
}

func TestThemeGroupsSharePermutedKeys(t *testing.T) {
	ix := New[string]()
	p := []event.Predicate{{Attr: "type", Value: "v", ApproxAttr: true, ApproxValue: true}}
	ix.Add("a", &event.Subscription{Theme: []string{"Energy Policy", "transport"}, Predicates: p}, "a")
	ix.Add("b", &event.Subscription{Theme: []string{"transport", "energy policy", "transport"}, Predicates: p}, "b")
	ix.Add("c", &event.Subscription{Theme: []string{"city planning"}, Predicates: p}, "c")
	if ix.Themes() != 2 {
		t.Errorf("Themes = %d, want 2 (permuted/duplicated tags share a group)", ix.Themes())
	}
}
