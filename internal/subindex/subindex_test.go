package subindex

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"thematicep/internal/event"
	"thematicep/internal/text"
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
	if st := ix.Stats(); ix.Len() != 0 || st.Buckets != 0 || st.ApproxEntries != 0 || st.Terms != 1 {
		t.Errorf("empty index: len %d, stats %+v; want empty postings and the one term kept", ix.Len(), st)
	}
}

// TestRegisteredAlone checks that a subscription added with a nil view is
// in the registry (Get, Len, AppendAll, Remove, Clear) but never a
// candidate, costs no term or posting, and can be replaced by a filed one
// and back.
func TestRegisteredAlone(t *testing.T) {
	ix := New[string]()
	sub := &event.Subscription{Predicates: []event.Predicate{{Attr: "type", Value: "v"}}}
	ix.Add("a", nil, "a")
	ix.Add("b", sub, "b")
	if p, ok := ix.Get("a"); !ok || p != "a" || ix.Len() != 2 {
		t.Fatalf("Get(a) = %q, %v; Len = %d", p, ok, ix.Len())
	}
	if st := ix.Stats(); st.Terms != 1 || st.Buckets != 1 || st.ApproxEntries != 0 {
		t.Errorf("stats %+v: the unfiled registration interned or posted something", st)
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
	if st := ix.Stats(); fmt.Sprint(cleared) != "[a-filed c]" || ix.Len() != 0 || st.Buckets != 0 || st.Terms != 1 {
		t.Errorf("Clear = %v, then Len %d, stats %+v", cleared, ix.Len(), st)
	}
}

// filing is what the candidate oracle knows of one registration: the view
// it was added with (nil when registered alone) and its payload.
type filing struct {
	sub     *event.Subscription
	payload int
}

// fuzzOps decodes the fuzz input one byte at a time, reading 0 once it is
// spent.
type fuzzOps struct{ data []byte }

func (r *fuzzOps) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *fuzzOps) pick(xs []string) string { return xs[r.next()%len(xs)] }

// The vocabulary holds case and spacing variants that canonicalize to one
// term, so an event and a subscription may spell a term differently.
var (
	fuzzIDs    = []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	fuzzAttrs  = []string{"type", "Type", "room", " ROOM", "zone", "device"}
	fuzzValues = []string{"a", "A", "b", "parking event", "Parking  Event"}
	fuzzTags   = []string{"energy", "Energy", "transport", "TRANSPORT ", "water"}
)

// sub draws a subscription with a 0–2-tag theme (tags may repeat, permute
// or differ in case) and 1–3 predicates of any exactness.
func (r *fuzzOps) sub() *event.Subscription {
	s := &event.Subscription{}
	for range r.next() % 3 {
		s.Theme = append(s.Theme, r.pick(fuzzTags))
	}
	for range 1 + r.next()%3 {
		p := event.Predicate{Attr: r.pick(fuzzAttrs), Value: r.pick(fuzzValues)}
		flags := r.next()
		p.ApproxAttr, p.ApproxValue = flags&1 != 0, flags&2 != 0
		if flags&4 != 0 {
			p.Op = event.OpGt
		}
		s.Predicates = append(s.Predicates, p)
	}
	return s
}

func (r *fuzzOps) event() *event.Event {
	e := &event.Event{Theme: []string{r.pick(fuzzTags)}}
	for range 1 + r.next()%4 {
		e.Tuples = append(e.Tuples, event.Tuple{Attr: r.pick(fuzzAttrs), Value: r.pick(fuzzValues)})
	}
	return e
}

// checkCandidates enumerates e and compares the yield with the definition
// of a candidate: a filed subscription with no more predicates than e has
// tuples, each of whose exact requirements (an exact attribute, or an exact
// attribute with an exact equality value) is among e's terms. Themes play
// no part.
func checkCandidates(t *testing.T, ix *Index[int], model map[string]filing, e *event.Event) {
	t.Helper()
	attrs, pairs := map[string]bool{}, map[[2]string]bool{}
	for _, tu := range e.Tuples {
		a := text.Canonical(tu.Attr)
		attrs[a] = true
		pairs[[2]string{a, text.Canonical(tu.Value)}] = true
	}
	want := map[int]bool{}
	for _, f := range model {
		if f.sub == nil || len(f.sub.Predicates) > len(e.Tuples) {
			continue
		}
		ok := true
		for _, p := range f.sub.Predicates {
			a := text.Canonical(p.Attr)
			switch {
			case p.ApproxAttr:
			case p.Op == event.OpEq && !p.ApproxValue:
				ok = ok && pairs[[2]string{a, text.Canonical(p.Value)}]
			default:
				ok = ok && attrs[a]
			}
		}
		if ok {
			want[f.payload] = true
		}
	}
	got := map[int]bool{}
	c, pruned := ix.Candidates(e, func(p int) {
		if got[p] {
			t.Errorf("payload %d yielded twice", p)
		}
		got[p] = true
	})
	if !maps.Equal(got, want) {
		t.Fatalf("event %+v: candidates %v, want %v", e.Tuples, got, want)
	}
	if n := ix.Len(); c != len(got) || c+pruned != n || n != len(model) {
		t.Fatalf("event %+v: c=%d pruned=%d Len=%d, yielded %d of %d registrations", e.Tuples, c, pruned, n, len(got), len(model))
	}
}

// FuzzCandidates drives the index through registrations (filed, nil-view,
// re-Add of a live id), Remove and Clear decoded from the input, and checks
// every event's candidates against the definition (checkCandidates).
func FuzzCandidates(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 0, 7, 7, 0, 3, 2})
	f.Add([]byte{0, 0, 1, 2, 8, 3, 0, 0, 0, 1, 9, 2, 6, 0, 2, 0, 8, 1, 0, 3, 5, 1, 3, 7, 0, 0, 9, 0, 1, 1, 14, 3})
	f.Add([]byte{1, 2, 3, 2, 2, 16, 4, 3, 6, 0, 5, 12, 8, 8, 8, 8, 3, 3, 0, 4, 0, 0, 1, 5, 3, 4, 1})
	rng := rand.New(rand.NewSource(44))
	for range 4 {
		seed := make([]byte, 300)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzOps{data: data}
		ix := New[int]()
		model := map[string]filing{}
		payload := 0
		for len(r.data) > 0 {
			switch r.next() % 8 {
			case 0, 1, 2: // Add, replacing a live id
				id := r.pick(fuzzIDs)
				var sub *event.Subscription
				if r.next()%4 != 0 {
					sub = r.sub()
				}
				payload++
				ix.Add(id, sub, payload)
				model[id] = filing{sub, payload}
			case 3:
				id := r.pick(fuzzIDs)
				p, ok := ix.Remove(id)
				if f, live := model[id]; ok != live || p != f.payload {
					t.Fatalf("Remove(%s) = %d, %v; want %d, %v", id, p, ok, f.payload, live)
				}
				delete(model, id)
			case 4:
				if r.next()%4 != 0 {
					checkCandidates(t, ix, model, r.event())
					continue
				}
				var want []int
				for _, f := range model {
					want = append(want, f.payload)
				}
				got := ix.Clear()
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("Clear = %v, want %v", got, want)
				}
				clear(model)
			default:
				checkCandidates(t, ix, model, r.event())
			}
		}
		all := &event.Event{}
		for i, a := range fuzzAttrs {
			all.Tuples = append(all.Tuples, event.Tuple{Attr: a, Value: fuzzValues[i%len(fuzzValues)]})
		}
		checkCandidates(t, ix, model, all)
	})
}
