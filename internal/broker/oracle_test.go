package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/subindex"
)

// scoredEvent is one delivery as the oracle compares it: which event, with
// exactly which score.
type scoredEvent struct {
	EventID string
	Score   float64
}

// oracleRun drives one broker through the oracle scenario and returns
// every subscription's deliveries in arrival order plus the final stats:
//
//   - subscribe all of subs, publish the first half of events in batches of
//     bs (bs == 1 goes through the serial Publish entry point);
//   - mid-stream, between two publishes: unsubscribe every third
//     subscription (index removal) and subscribe late (index add);
//   - publish the second half, Drain with one consumer per subscription,
//     and check that the drained broker refuses further publishes.
//
// Queues are sized so drop-oldest never fires: the delivery lists are a
// pure function of the scores.
func oracleRun(t *testing.T, m Matcher, subs, late []*event.Subscription, events []*event.Event, bs int, opts ...Option) (map[string][]scoredEvent, Stats, *Broker) {
	t.Helper()
	b := New(m, append([]Option{WithQueueSize(len(events) + 1), WithReplayBuffer(0)}, opts...)...)

	var handles []*Subscriber
	subscribe := func(ss []*event.Subscription) {
		for _, s := range ss {
			h, err := b.Subscribe(s)
			if err != nil {
				t.Fatalf("subscribe %q: %v", s.ID, err)
			}
			handles = append(handles, h)
		}
	}
	publishAll := func(evs []*event.Event) {
		for lo := 0; lo < len(evs); lo += bs {
			hi := min(lo+bs, len(evs))
			var err error
			if bs == 1 {
				err = b.Publish(evs[lo])
			} else {
				err = b.PublishBatch(evs[lo:hi])
			}
			if err != nil {
				t.Fatalf("publish [%d:%d]: %v", lo, hi, err)
			}
		}
	}
	subscribe(subs)
	mid := len(events) / 2
	publishAll(events[:mid])
	for j := 0; j < len(subs); j += 3 {
		handles[j].Close()
	}
	subscribe(late)
	publishAll(events[mid:])
	st := b.Stats()

	got := make(map[string][]scoredEvent, len(handles))
	var mu sync.Mutex
	var consumers sync.WaitGroup
	for _, h := range handles {
		consumers.Add(1)
		go func(h *Subscriber) {
			defer consumers.Done()
			var ds []scoredEvent
			for d := range stream(h) {
				ds = append(ds, scoredEvent{d.Event.ID, d.Score})
			}
			mu.Lock()
			got[h.ID()] = ds
			mu.Unlock()
		}(h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	consumers.Wait()
	if err := b.Publish(events[0]); !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) {
		t.Errorf("publish after drain: %v, want ErrDraining or ErrClosed", err)
	}
	return got, st, b
}

// rawFlagPruned is the number of pairs an index filing every subscription
// as written, ~ flags and all, prunes over oracleRun's scenario: the first
// half of events against subs, then every third of subs removed and late
// added, then the second half.
func rawFlagPruned(subs, late []*event.Subscription, events []*event.Event) uint64 {
	ix := subindex.New[int]()
	var pruned int
	add := func(ss []*event.Subscription) {
		for _, s := range ss {
			ix.Add(s.ID, s, 0)
		}
	}
	enumerate := func(evs []*event.Event) {
		for _, e := range evs {
			_, p := ix.Candidates(e, func(int) {})
			pruned += p
		}
	}
	mid := len(events) / 2
	add(subs)
	enumerate(events[:mid])
	for j := 0; j < len(subs); j += 3 {
		ix.Remove(subs[j].ID)
	}
	add(late)
	enumerate(events[mid:])
	return uint64(pruned)
}

// TestPublishOracle is the one equivalence argument of the publish
// pipeline, checked instead of asserted: whatever the entry point, batch
// size, worker count or candidate source, the deliveries are exactly those
// of a full scan scoring every (event, subscription) pair through
// Matcher.Score, one event at a time on one goroutine — same subscribers,
// same events, bit-identical scores, same per-subscriber order.
//
// It replaces the tier-vs-tier suites, and every behaviour they checked is
// a row or an assertion here:
//
//   - TestBatchDeliveryEquivalence (arena sweep ≡ row-at-a-time scoring,
//     serial and parallel, pruned and full scan; Scanned/Matched equal):
//     every engine row; the stats block.
//   - TestPublishParallelMatchesSerial (worker pool invisible for a plain
//     Matcher: same deliveries in the same per-subscriber order, same
//     stats, sub-threshold scores filtered): the plain rows.
//   - TestPruningDeliveryEquivalence (index ≡ full scan; Pruned > 0 only
//     when pruning; Scanned+Pruned = full-scan Scanned; unsubscribe
//     mid-stream exercises index removal): pruning on vs off rows; the
//     stats block.
//   - TestPublishBatchEquivalence (PublishBatch ≡ serial Publish loop at
//     batch 7 and whole-run batches, parallel, full scan, plain Matcher
//     through PublishBatch; Published/Delivered equal; batches counted;
//     row memo reused): bs=7 and bs=64 rows (64 ≥ each half of the
//     stream, so each half is one batch); the stats block.
//
// The row matrix runs twice: at the default threshold and at
// oracleHighThreshold, each against a reference at the same threshold. At
// the high one about a sixth as many pairs match and the matcher's
// rejection rules (the theme-basis bound, the mask and cell rules) stop
// more of them; the Engine rows with pruning on must show the bound
// stopping pairs.
func TestPublishOracle(t *testing.T) {
	type row struct {
		plain   bool // plain Matcher (MatchFunc) instead of the engine
		bs      int
		par     int
		pruning bool
	}
	var rows []row
	for _, bs := range []int{1, 7, 64} {
		for _, par := range []int{1, 4} {
			for _, pruning := range []bool{true, false} {
				rows = append(rows, row{bs: bs, par: par, pruning: pruning})
			}
		}
	}
	rows = append(rows,
		row{plain: true, bs: 1, par: 4, pruning: true},
		row{plain: true, bs: 7, par: 4, pruning: true},
	)

	for _, seed := range []int64{3, 42} {
		baseSubs, events := mixedThemeWorkload(t, seed)
		var subs, late []*event.Subscription
		for rep := 0; rep < 9; rep++ {
			for _, s := range baseSubs {
				cp := *s
				cp.ID = fmt.Sprintf("%s-r%d", s.ID, rep)
				subs = append(subs, &cp)
			}
		}
		for i, s := range baseSubs[:10] {
			cp := *s
			cp.ID = fmt.Sprintf("late-%d", i)
			late = append(late, &cp)
		}
		if len(events)/2 > 64 {
			t.Fatalf("half stream %d exceeds the largest batch size", len(events)/2)
		}

		m := thematicMatcher(t)
		filtered := 0
		for _, s := range subs {
			if m.PrepareSubscription(s).PruningView() != s {
				filtered++
			}
		}
		_, viewStats, _ := oracleRun(t, thematicMatcher(t), subs, late, events, 64, WithMatchParallelism(1))
		if raw := rawFlagPruned(subs, late, events); filtered == 0 || viewStats.Pruned <= raw {
			t.Fatalf("%d subscriptions carry a filtered relaxed term and the broker prunes %d pairs, raw ~ flags %d: the pruning view goes unexercised",
				filtered, viewStats.Pruned, raw)
		}

		for _, th := range []struct {
			suffix string
			opts   []Option
		}{
			{"", nil},
			{fmt.Sprintf("/theta=%v", oracleHighThreshold), []Option{WithThreshold(oracleHighThreshold)}},
		} {
			want, wantStats, _ := oracleRun(t, MatchFunc(m.Score), subs, late, events, 1,
				append([]Option{WithMatchParallelism(1)}, th.opts...)...)
			if wantStats.Matched == 0 || wantStats.Matched == wantStats.Scanned {
				t.Fatalf("degenerate workload%s: %d of %d pairs match", th.suffix, wantStats.Matched, wantStats.Scanned)
			}
			if wantStats.Dropped != 0 || wantStats.Pruned != 0 {
				t.Fatalf("reference%s dropped %d, pruned %d; want 0, 0", th.suffix, wantStats.Dropped, wantStats.Pruned)
			}

			for _, r := range rows {
				name := fmt.Sprintf("seed=%d/plain=%v/bs=%d/par=%d/pruning=%v", seed, r.plain, r.bs, r.par, r.pruning) + th.suffix
				t.Run(name, func(t *testing.T) {
					var subject Matcher = thematicMatcher(t)
					if r.plain {
						subject = MatchFunc(m.Score)
					}
					got, st, b := oracleRun(t, subject, subs, late, events, r.bs,
						append([]Option{WithMatchParallelism(r.par), WithPruning(r.pruning)}, th.opts...)...)

					if len(got) != len(want) {
						t.Errorf("%d subscriptions reported, want %d", len(got), len(want))
					}
					for id, w := range want {
						g := got[id]
						if len(g) != len(w) {
							t.Errorf("sub %s: %d deliveries, want %d", id, len(g), len(w))
							continue
						}
						for i := range w {
							if g[i] != w[i] {
								t.Errorf("sub %s delivery %d: got %+v, want %+v", id, i, g[i], w[i])
							}
						}
					}

					if st.Published != wantStats.Published || st.Matched != wantStats.Matched ||
						st.Delivered != wantStats.Delivered || st.Dropped != 0 {
						t.Errorf("stats %+v, reference %+v", st, wantStats)
					}
					if st.Scanned+st.Pruned != wantStats.Scanned {
						t.Errorf("scanned %d + pruned %d != full-scan count %d", st.Scanned, st.Pruned, wantStats.Scanned)
					}
					if pruned := r.pruning && !r.plain; (st.Pruned > 0) != pruned {
						t.Errorf("pruned %d pairs with pruning engaged = %v", st.Pruned, pruned)
					}
					mid := len(events) / 2
					calls := (mid+r.bs-1)/r.bs + (len(events)-mid+r.bs-1)/r.bs
					if st.Batches != uint64(calls) {
						t.Errorf("batches = %d, want one per publish call (%d)", st.Batches, calls)
					}
					if !r.plain && st.BatchRowsReused == 0 {
						t.Error("arena memo reused no rows over a term-skewed workload")
					}
					if th.opts != nil && !r.plain && r.pruning && b.ctr[cScoreBound].Load() == 0 {
						t.Error("the theme-basis bound stopped no pair at the high threshold")
					}
				})
			}
		}
	}
}

// oracleHighThreshold is TestPublishOracle's second threshold, at which the
// matcher's rejection rules decide more pairs than at the default.
const oracleHighThreshold = 0.5
