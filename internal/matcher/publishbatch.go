package matcher

import (
	"math"

	"thematicep/internal/event"
	"thematicep/internal/freelist"
)

// This file gives the row memo of batch.go publish-batch scope. A broker
// publishing a batch of events (one event included) prepares them all
// through one EventBatch, which recycles their PreparedEvents; raw terms
// and themes resolve through the space's memos (semantics.CanonicalTerms,
// Compile), so a spelling is canonicalized once per space, not once per
// tuple. Workers score through BatchArenas whose row memos persist across
// every candidate chunk of the current prepared event — cleared when the
// worker moves to another one — so at scale the semantic kernel runs once
// per distinct (term, theme) pair per event per arena instead of once per
// 256-candidate chunk.

// EventBatch is the batch-scope prepare context of one publish batch: free
// lists for prepared events and scoring arenas. It is single-owner: one
// goroutine prepares events and borrows arenas; only the arenas themselves
// may then be used concurrently (one goroutine each). Obtain with
// Matcher.NewEventBatch, return with Matcher.FinishEventBatch — prepared
// events and arenas are invalid after Finish.
type EventBatch struct {
	pes     []*PreparedEvent // prepared-event free list
	usedPEs int
	arenas  []*BatchArena // arena free list
	lent    int

	termsInterned uint64 // raw-term memo misses this batch
	termsReused   uint64 // raw-term memo hits this batch
}

// BatchArena is one worker's persistent scoring state within an
// EventBatch: the row memo and arena shared across every candidate chunk
// of the prepared event currently being scored. The memo holds rows for
// one event and is cleared whenever the arena moves to another — keeping
// it cache-resident (a whole-batch memo at the 100k tier grows to millions
// of rows and thrashes) while still eliminating the per-chunk row
// recomputation that dominates the serial path. Each arena may be used by
// one goroutine at a time.
type BatchArena struct {
	bb *batchBuf
	pe *PreparedEvent // the event the memo holds rows for
}

// eventBatchFree holds the spare batch contexts. Contexts are few but heavy
// (prepared events, arenas, row memos), and a pool the GC empties would
// surrender them at every cycle — regrowing memos each batch is precisely
// the churn the context exists to avoid.
var eventBatchFree = make(freelist.List[EventBatch], 4)

// NewEventBatch borrows a batch-prepare context. Contexts are recycled with
// their prepared events and their arenas' memo tables grown. A context
// holds nothing of the matcher that last used it, so any matcher may
// borrow it.
func (m *Matcher) NewEventBatch() *EventBatch { return eventBatchFree.GetOrNew() }

// PrepareEventInBatch is PrepareEvent into a PreparedEvent the context
// recycles. The returned value is owned by the context and invalid after
// FinishEventBatch, which recycles it for a later batch's events.
func (m *Matcher) PrepareEventInBatch(eb *EventBatch, e *event.Event) *PreparedEvent {
	if eb.usedPEs == len(eb.pes) {
		eb.pes = append(eb.pes, new(PreparedEvent))
	}
	p := eb.pes[eb.usedPEs]
	eb.usedPEs++
	misses, hits := m.fillEvent(p, e)
	eb.termsInterned += misses
	eb.termsReused += hits
	return p
}

// NewBatchArena borrows a scoring arena from the context; hand one to each
// scoring goroutine. Each
// arena owns the row kernel's dense scratch, one float64 per document of
// the matcher's index (a recycled context may have served another index).
// The arena scores every candidate until SetThreshold says otherwise.
func (m *Matcher) NewBatchArena(eb *EventBatch) *BatchArena {
	if eb.lent == len(eb.arenas) {
		eb.arenas = append(eb.arenas, &BatchArena{bb: &batchBuf{epoch: 1}})
	}
	a := eb.arenas[eb.lent]
	eb.lent++
	if n := m.space.Index().NumDocs(); len(a.bb.scratch) != n {
		a.bb.scratch = make([]float64, n)
	}
	a.bb.floor, a.bb.relFloor = 0, m.space.RelatednessFloor()
	return a
}

// SetThreshold sets the threshold θ the caller will hold the arena's scores
// to. With θ > 0 a candidate whose theme-basis cap proves its score below θ
// is reported as RejectedByBound, before any of its rows is filled, and a
// value cell is filled only under an attribute cell of at least
// θ·(1 − 10⁻⁹), so a candidate whose matrix left a cell out and scores
// below θ is reported as RejectedByBound too. Every candidate scoring at
// least θ keeps ScorePrepared's bits. θ ≤ 0, which NewBatchArena sets,
// scores every candidate and fills every value cell under a nonzero
// attribute cell. The memo starts afresh, so a rejection under one
// threshold is never served under another.
//
// A candidate that passed its masks against an event of at most 64 tuples
// has a column where each factor of its cell is 1 or a relaxed relatedness
// bound, and such a bound exceeds the space's RelatednessFloor, so a
// candidate with k relaxed factors has a cap of at least floor^k. Its cap is not computed when that already reaches θ: at
// θ = 0.2 under Euclidean distance, every candidate with one relaxed factor.
func (a *BatchArena) SetThreshold(theta float64) {
	bb := a.bb
	bb.floor = theta * (1 - boundSlack)
	bb.certain = -1
	for p := 1.0; p >= bb.floor && bb.certain < math.MaxUint8; p *= bb.relFloor {
		bb.certain++
	}
	bb.invalidate()
	a.pe = nil
}

// ScoreBatchInArena scores one prepared event against a batch of prepared
// subscriptions, appending one score per subscription (in order) to out
// and returning it — bit-identical to ScorePrepared per pair (see
// scoreBatchInto). The row memo is held in the arena, so rows survive
// across calls for the same prepared event: successive candidate chunks
// skip the semantic kernel entirely. Another event evicts the memo first
// (row keys carry no event identity).
func (m *Matcher) ScoreBatchInArena(a *BatchArena, subs []*PreparedSubscription, pe *PreparedEvent, out []float64) []float64 {
	if a.pe != pe {
		a.bb.invalidate()
		a.pe = pe
	}
	return m.scoreBatchInto(a.bb, subs, pe, out)
}

// FinishEventBatch returns the context to its free list and reports the
// batch's amortization counters: raw terms the space's term memo missed
// (canonicalized fresh) vs served from it (semantics.CanonicalTerms), and
// similarity rows computed (opened in an arena) vs reused from the arena
// memos. Every PreparedEvent and BatchArena borrowed from the context is
// invalid afterwards; each arena forgets its event, because the next batch
// recycles the same PreparedEvent for a different one.
func (m *Matcher) FinishEventBatch(eb *EventBatch) (termsInterned, termsReused, rowsComputed, rowsReused uint64) {
	termsInterned, termsReused = eb.termsInterned, eb.termsReused
	eb.termsInterned, eb.termsReused = 0, 0
	for _, a := range eb.arenas[:eb.lent] {
		rowsComputed += a.bb.computed
		rowsReused += a.bb.reused
		a.bb.computed, a.bb.reused = 0, 0
		a.pe = nil
	}
	eb.lent = 0
	for _, p := range eb.pes[:eb.usedPEs] {
		p.ev = nil // don't pin events (or cached unit vectors) beyond the batch
		clear(p.attrUnits)
		clear(p.valueUnits)
	}
	eb.usedPEs = 0
	eventBatchFree.Put(eb)
	return termsInterned, termsReused, rowsComputed, rowsReused
}
