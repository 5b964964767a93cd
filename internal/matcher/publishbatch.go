package matcher

import (
	"math"

	"thematicep/internal/event"
	"thematicep/internal/freelist"
	"thematicep/internal/semantics"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// This file gives the row memo of batch.go publish-batch scope. A broker
// publishing a batch of events (one event included) prepares them all
// through one EventBatch, which interns each distinct raw term once (one
// text.Canonical per distinct spelling per batch, not one per tuple) and
// resolves each event's unit projections once. Workers score through
// BatchArenas whose row memos persist across every candidate chunk of the
// current prepared event — cleared when the worker moves to another one —
// so at scale the semantic kernel runs once per distinct (term, theme)
// pair per event per arena instead of once per 256-candidate chunk.

// Interner growth bounds: when either map outgrows its bound at
// FinishEventBatch time, both interners are cleared, keeping memory
// proportional to the live vocabulary.
const (
	maxInternedTerms  = 1 << 16
	maxInternedThemes = 1 << 12
)

// canonTerm is one entry of the batch term interner: the canonical form
// and its interned ordinal (semantics.TermOrd), resolved together so the
// per-tuple cost of carrying ordinals is one map hit, not a second lookup.
type canonTerm struct {
	c   string
	ord uint32
}

// EventBatch is the batch-scope prepare context of one publish batch: the
// raw→canonical term and theme interners, and free lists for prepared
// events and scoring arenas. It is single-owner: one
// goroutine prepares events and borrows arenas; only the arenas themselves
// may then be used concurrently (one goroutine each). Obtain with
// Matcher.NewEventBatch, return with Matcher.FinishEventBatch — prepared
// events and arenas are invalid after Finish.
type EventBatch struct {
	m      *Matcher
	canon  map[string]canonTerm                // raw term -> canonical form + ordinal
	themes map[string]*semantics.CompiledTheme // raw joined tags -> compiled theme
	key    []byte                              // theme-key scratch

	pes     []*PreparedEvent // prepared-event free list
	usedPEs int
	arenas  []*BatchArena // arena free list
	lent    int

	termsInterned uint64 // interner misses this batch
	termsReused   uint64 // interner hits this batch
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
// (interners, arenas, row memos), and a sync.Pool would surrender them at
// every GC cycle — regrowing maps and memos each batch is precisely the
// churn the context exists to avoid.
var eventBatchFree = make(freelist.List[EventBatch], 4)

// NewEventBatch borrows a batch-prepare context. Contexts are recycled with
// their interners warm and their arenas' memo tables grown, so a steady
// stream of batches over a stable vocabulary re-canonicalizes nothing; a context last used by a
// different matcher is reset first (interned ordinals and compiled themes
// are only coherent within one matcher's space).
func (m *Matcher) NewEventBatch() *EventBatch {
	eb := eventBatchFree.Get()
	if eb == nil {
		eb = &EventBatch{
			canon:  make(map[string]canonTerm),
			themes: make(map[string]*semantics.CompiledTheme),
		}
	}
	if eb.m != m {
		eb.reset()
		eb.m = m
	}
	return eb
}

// reset drops both interners.
func (eb *EventBatch) reset() {
	clear(eb.canon)
	clear(eb.themes)
}

// PrepareEventInBatch is PrepareEvent through the batch context: canonical
// terms come from the interner. The returned value is owned by the context
// and invalid after FinishEventBatch, which recycles it for a later
// batch's events.
func (m *Matcher) PrepareEventInBatch(eb *EventBatch, e *event.Event) *PreparedEvent {
	p := eb.nextPE(len(e.Tuples))
	p.ev = e
	p.theme = nil
	if m.opts.thematic {
		p.theme = eb.compileTheme(e.Theme)
	}
	for j, t := range e.Tuples {
		a, v := eb.intern(t.Attr), eb.intern(t.Value)
		p.attrs[j], p.attrOrds[j] = a.c, a.ord
		p.values[j], p.valueOrds[j] = v.c, v.ord
	}
	p.resolveUnits(m.space)
	return p
}

func (eb *EventBatch) nextPE(n int) *PreparedEvent {
	var p *PreparedEvent
	if eb.usedPEs < len(eb.pes) {
		p = eb.pes[eb.usedPEs]
	} else {
		p = new(PreparedEvent)
		eb.pes = append(eb.pes, p)
	}
	eb.usedPEs++
	if cap(p.attrs) < n {
		p.attrs = make([]string, 0, n)
		p.values = make([]string, 0, n)
		p.attrOrds = make([]uint32, 0, n)
		p.valueOrds = make([]uint32, 0, n)
		p.attrUnits = make([]sparse.Unit, 0, n)
		p.valueUnits = make([]sparse.Unit, 0, n)
	}
	p.attrs = p.attrs[:n]
	p.values = p.values[:n]
	p.attrOrds = p.attrOrds[:n]
	p.valueOrds = p.valueOrds[:n]
	p.attrUnits = p.attrUnits[:n]
	p.valueUnits = p.valueUnits[:n]
	return p
}

// intern returns the canonical form and interned ordinal of a raw term,
// computing both at most once per distinct spelling per context lifetime.
func (eb *EventBatch) intern(raw string) canonTerm {
	if c, ok := eb.canon[raw]; ok {
		eb.termsReused++
		return c
	}
	c := canonTerm{c: text.Canonical(raw)}
	c.ord = eb.m.space.TermOrd(c.c)
	eb.canon[raw] = c
	eb.termsInterned++
	return c
}

// compileTheme memoizes Space.Compile per raw tag list: the space's own
// memo returns a stable pointer but rebuilds its string key on every
// lookup, so the batch context keeps its own allocation-free front cache
// keyed through a reused byte scratch (eb.key).
func (eb *EventBatch) compileTheme(theme []string) *semantics.CompiledTheme {
	if len(theme) == 0 {
		return nil
	}
	sb := eb.key[:0]
	for _, tag := range theme {
		sb = append(sb, tag...)
		sb = append(sb, 0x01)
	}
	eb.key = sb
	if t, ok := eb.themes[string(sb)]; ok {
		return t
	}
	t := eb.m.space.Compile(theme)
	eb.themes[string(sb)] = t
	return t
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

// FinishEventBatch returns the context to the pool and reports the batch's
// amortization counters: terms interned (canonicalized fresh) vs reused
// from the interner, and similarity rows computed (opened in an arena) vs
// reused from the arena memos. Every PreparedEvent and BatchArena borrowed
// from the context is invalid afterwards; each arena forgets its event,
// because the next batch recycles the same PreparedEvent for a different
// one.
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
	if len(eb.canon) > maxInternedTerms || len(eb.themes) > maxInternedThemes {
		eb.reset()
	}
	eventBatchFree.Put(eb)
	return termsInterned, termsReused, rowsComputed, rowsReused
}
