package matcher

import (
	"thematicep/internal/event"
	"thematicep/internal/semantics"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// This file gives the row memo of batch.go publish-batch scope. A broker
// publishing a batch of events (one event included) prepares them all
// through one EventBatch, which interns each distinct raw term once (one
// text.Canonical per distinct spelling per batch, not one per tuple),
// resolves each event's unit projections once, and assigns every prepared
// event a term-vector id: events with identical canonical term vectors and
// compiled theme share an id. Workers score through BatchArenas whose row
// memos persist across every candidate chunk of the current event vector —
// cleared only when the worker moves to an event with a different vector —
// so at scale the semantic kernel runs once per distinct (term, theme)
// pair per event per arena instead of once per 256-candidate chunk.

// Interner growth bounds: when either map outgrows its bound at
// FinishEventBatch time, the whole context (interners, vec namespace, and
// every arena memo keyed by it) is reset together, keeping memory
// proportional to the live vocabulary while preserving the invariant that
// a vec id never aliases two distinct term vectors within one context.
const (
	maxInternedTerms = 1 << 16
	maxInternedVecs  = 1 << 12
)

// canonTerm is one entry of the batch term interner: the canonical form
// and its interned ordinal (semantics.TermOrd), resolved together so the
// per-tuple cost of carrying ordinals is one map hit, not a second lookup.
type canonTerm struct {
	c   string
	ord uint32
}

// EventBatch is the batch-scope prepare context of one publish batch: the
// raw→canonical term interner, the term-vector namespace, and free lists
// for prepared events and scoring arenas. It is single-owner: one
// goroutine prepares events and borrows arenas; only the arenas themselves
// may then be used concurrently (one goroutine each). Obtain with
// Matcher.NewEventBatch, return with Matcher.FinishEventBatch — prepared
// events and arenas are invalid after Finish.
type EventBatch struct {
	m       *Matcher
	canon   map[string]canonTerm                // raw term -> canonical form + ordinal
	vecs    map[string]uint32                   // term-vector signature -> vec id
	themes  map[string]*semantics.CompiledTheme // raw joined tags -> compiled theme
	nextVec uint32
	sig     []byte // signature-building scratch

	pes     []*PreparedEvent // prepared-event free list
	usedPEs int
	arenas  []*BatchArena // arena free list
	lent    int

	termsInterned uint64 // interner misses this batch
	termsReused   uint64 // interner hits this batch
}

// BatchArena is one worker's persistent scoring state within an
// EventBatch: the row memo and arena shared across every candidate chunk
// of the event-vector currently being scored. The memo is keyed by the
// event's interned term-vector ids and cleared whenever the arena moves to
// a different vector — keeping it cache-resident (a whole-batch memo at
// the 100k tier grows to millions of rows and thrashes) while still
// eliminating the per-chunk row recomputation that dominates the serial
// path, and still carrying rows across consecutive events that share a
// vector. Each arena may be used by one goroutine at a time.
type BatchArena struct {
	bb         *batchBuf
	vecA, vecV uint32 // term-vector ids the memo currently holds rows for
}

// eventBatchFree is a bounded free list rather than a sync.Pool: batch
// contexts are few but heavy (interners, arenas, row memos), and a
// sync.Pool would surrender them at every GC cycle — regrowing maps and
// memos each batch is precisely the churn the context exists to avoid.
var eventBatchFree = make(chan *EventBatch, 4)

// NewEventBatch borrows a batch-prepare context. Contexts are recycled with
// their interners and row memos warm, so a steady stream of batches over a
// stable vocabulary re-canonicalizes and re-computes nothing; a context
// last used by a different matcher is reset first (vec ids and memoized
// rows are only coherent within one matcher's space).
func (m *Matcher) NewEventBatch() *EventBatch {
	var eb *EventBatch
	select {
	case eb = <-eventBatchFree:
	default:
		eb = &EventBatch{
			canon:  make(map[string]canonTerm),
			vecs:   make(map[string]uint32),
			themes: make(map[string]*semantics.CompiledTheme),
		}
	}
	if eb.m != m {
		eb.reset()
		eb.m = m
	}
	return eb
}

// reset drops the interners, the vec namespace, and every arena memo keyed
// by it — always together, so a recycled vec id can never resurrect a row
// computed for a different term vector.
func (eb *EventBatch) reset() {
	clear(eb.canon)
	clear(eb.vecs)
	clear(eb.themes)
	eb.nextVec = 0
	for _, a := range eb.arenas {
		a.bb.invalidate()
	}
}

// PrepareEventInBatch is PrepareEvent through the batch context: canonical
// terms come from the interner and the event is stamped with its term
// vector ids. The returned value is owned by the context and invalid after
// FinishEventBatch.
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
	p.attrsVec = eb.vecOf(rowAttr, p)
	p.valuesVec = eb.vecOf(rowValue, p)
	p.hasUnits = m.space.ResolveUnits(p.attrs, p.theme, p.attrUnits) &&
		m.space.ResolveUnits(p.values, p.theme, p.valueUnits)
	p.attrLive, p.valueLive = 0, 0
	if p.hasUnits {
		p.attrLive = semantics.LiveColumns(p.attrUnits)
		p.valueLive = semantics.LiveColumns(p.valueUnits)
	}
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
// keyed through the signature scratch.
func (eb *EventBatch) compileTheme(theme []string) *semantics.CompiledTheme {
	if len(theme) == 0 {
		return nil
	}
	sb := eb.sig[:0]
	for _, tag := range theme {
		sb = append(sb, tag...)
		sb = append(sb, 0x01)
	}
	eb.sig = sb
	if t, ok := eb.themes[string(sb)]; ok {
		return t
	}
	t := eb.m.space.Compile(theme)
	eb.themes[string(sb)] = t
	return t
}

// vecOf interns the (kind, compiled theme, canonical term vector)
// signature and returns its id (ids start at 1; 0 means "no batch
// identity"). The compiled theme participates through its canonical Key —
// rows depend on the event theme, so two events only share an id when
// their themes compile identically. The map lookup converts the scratch
// bytes in place, so a warm hit allocates nothing.
func (eb *EventBatch) vecOf(kind rowKind, p *PreparedEvent) uint32 {
	terms := p.attrs
	if kind == rowValue {
		terms = p.values
	}
	sb := eb.sig[:0]
	sb = append(sb, byte(kind))
	if p.theme != nil {
		sb = append(sb, p.theme.Key...)
	}
	for _, t := range terms {
		sb = append(sb, 0x1f)
		sb = append(sb, t...)
	}
	eb.sig = sb
	if v, ok := eb.vecs[string(sb)]; ok {
		return v
	}
	eb.nextVec++
	eb.vecs[string(sb)] = eb.nextVec
	return eb.nextVec
}

// NewBatchArena borrows a scoring arena from the context. Arenas keep
// their row memos across borrows (they are keyed by the context's
// persistent vec namespace); hand one to each scoring goroutine. Each
// arena owns the row kernel's dense scratch, one float64 per document of
// the matcher's index (a recycled context may have served another index).
func (m *Matcher) NewBatchArena(eb *EventBatch) *BatchArena {
	if eb.lent == len(eb.arenas) {
		eb.arenas = append(eb.arenas, &BatchArena{bb: &batchBuf{epoch: 1}})
	}
	a := eb.arenas[eb.lent]
	eb.lent++
	if n := m.space.Index().NumDocs(); len(a.bb.scratch) != n {
		a.bb.scratch = make([]float64, n)
	}
	return a
}

// ScoreBatchInArena scores one prepared event against a batch of prepared
// subscriptions, appending one score per subscription (in order) to out
// and returning it — bit-identical to ScorePrepared per pair (see
// scoreBatchInto). The row memo is held in the arena, so rows survive
// across calls for the same event vector: successive candidate chunks —
// and consecutive events sharing term vectors — skip the semantic kernel
// entirely. A different vector evicts the memo first (stale rows are
// unreachable by key, but holding every event's rows would grow the map
// past cache residency). Events prepared outside an EventBatch carry no
// vector identity (both ids 0), so for them the memo is evicted on every
// call: rows are shared within the call only.
func (m *Matcher) ScoreBatchInArena(a *BatchArena, subs []*PreparedSubscription, pe *PreparedEvent, out []float64) []float64 {
	if a.vecA != pe.attrsVec || a.vecV != pe.valuesVec || pe.attrsVec == 0 {
		a.bb.invalidate()
		a.vecA, a.vecV = pe.attrsVec, pe.valuesVec
	}
	return m.scoreBatchInto(a.bb, subs, pe, out)
}

// FinishEventBatch returns the context to the pool and reports the batch's
// amortization counters: terms interned (canonicalized fresh) vs reused
// from the interner, and similarity rows computed vs reused from the
// arena memos. Every PreparedEvent and BatchArena borrowed from the
// context is invalid afterwards.
func (m *Matcher) FinishEventBatch(eb *EventBatch) (termsInterned, termsReused, rowsComputed, rowsReused uint64) {
	termsInterned, termsReused = eb.termsInterned, eb.termsReused
	eb.termsInterned, eb.termsReused = 0, 0
	for _, a := range eb.arenas[:eb.lent] {
		rowsComputed += a.bb.computed
		rowsReused += a.bb.reused
		a.bb.computed, a.bb.reused = 0, 0
	}
	eb.lent = 0
	for _, p := range eb.pes[:eb.usedPEs] {
		p.ev = nil // don't pin events (or cached unit vectors) beyond the batch
		clear(p.attrUnits)
		clear(p.valueUnits)
	}
	eb.usedPEs = 0
	if len(eb.canon) > maxInternedTerms || len(eb.vecs) > maxInternedVecs || len(eb.themes) > maxInternedVecs {
		eb.reset()
	}
	select {
	case eventBatchFree <- eb:
	default: // free list full; let the GC have this one
	}
	return termsInterned, termsReused, rowsComputed, rowsReused
}
