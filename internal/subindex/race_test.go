package subindex

import (
	"fmt"
	"sync"
	"testing"

	"thematicep/internal/event"
)

// TestConcurrentMutateVsCandidates hammers Add/Remove/replace from several
// writers while readers enumerate candidates, exercising posting-list
// compaction and dense-id recycling under the race detector.
func TestConcurrentMutateVsCandidates(t *testing.T) {
	ix := New[int]()
	attrs := []string{"type", "room", "device", "zone"}
	sub := func(i int) *event.Subscription {
		return &event.Subscription{
			Theme: []string{fmt.Sprintf("theme %d", i%3)},
			Predicates: []event.Predicate{
				{Attr: attrs[i%len(attrs)], Value: fmt.Sprintf("v%d", i%7), ApproxValue: i%2 == 0},
				{Attr: attrs[(i+1)%len(attrs)], Value: "x", ApproxAttr: i%5 == 0, ApproxValue: true},
			},
		}
	}
	ev := &event.Event{
		Theme: []string{"theme 1"},
		Tuples: []event.Tuple{
			{Attr: "type", Value: "v1"},
			{Attr: "room", Value: "v2"},
			{Attr: "device", Value: "v3"},
		},
	}

	const writers, readers, ops = 4, 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("w%d-s%d", w, i%50)
				switch i % 3 {
				case 0, 1:
					ix.Add(id, sub(i), w*ops+i)
				case 2:
					ix.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				n := 0
				c, p := ix.Candidates(ev, func(int) { n++ })
				if c != n || c < 0 || p < 0 {
					t.Errorf("inconsistent enumeration: yielded %d, reported c=%d p=%d", n, c, p)
					return
				}
				_ = ix.Stats()
			}
		}()
	}
	wg.Wait()

	// Drain everything and verify the index empties cleanly.
	for w := 0; w < writers; w++ {
		for i := 0; i < 50; i++ {
			ix.Remove(fmt.Sprintf("w%d-s%d", w, i))
		}
	}
	if ix.Len() != 0 {
		t.Errorf("after drain: len=%d, want 0", ix.Len())
	}
	st := ix.Stats()
	if st.Buckets != 0 || st.ApproxEntries != 0 || st.MaxBucket != 0 || st.Terms == 0 {
		t.Errorf("after drain: stats %+v, want empty postings and the interned terms kept", st)
	}
}
