// Package matcher implements the paper's primary contribution: the
// approximate probabilistic thematic event matcher M of §3.5 and Fig. 4.
//
// Given a subscription s with theme ths and an event e with theme the, the
// matcher:
//
//  1. builds the combined attribute/value similarity matrix using the
//     parametric semantic measure sm(ths, ·, the, ·) for ~-relaxed parts and
//     exact comparison for the rest;
//  2. finds the top-1 mapping σ* — the maximum-probability injective mapping
//     of predicates to tuples — or the top-k mappings (Murty enumeration);
//  3. attaches the probability spaces Pσ (per-correspondence, normalized
//     over candidate tuples) and P (per-mapping, normalized over the
//     enumerated mappings).
//
// Thematic and non-thematic modes differ only in whether themes reach the
// semantic measure; the non-thematic mode is the paper's baseline (§5.2.5).
//
// # Concurrency
//
// A Matcher holds no per-call state beside the shared semantics.Space
// (itself safe for concurrent use) and its interned rows and signatures,
// and may be called from any number of goroutines. PreparedSubscription
// and PreparedEvent are immutable after creation and safe to share across
// goroutines: a broker prepares each subscription once and scores it
// concurrently against many events. A prepared subscription refers to rows
// of the matcher that prepared it, so only that matcher may score it. The similarity matrices
// of the MatchPrepared/ScorePrepared hot path are recycled internally
// (a bounded free list) and never escape, so the hot loop is
// allocation-free for the matrix itself.
package matcher

import (
	"math"
	"sync"
	"sync/atomic"

	"thematicep/internal/assign"
	"thematicep/internal/event"
	"thematicep/internal/semantics"
	"thematicep/internal/sparse"
)

// Correspondence is one predicate-to-tuple pairing inside a mapping, e.g.
// (device~ = laptop~ ↔ device: computer).
type Correspondence struct {
	// Predicate indexes into the subscription's predicate list.
	Predicate int
	// Tuple indexes into the event's tuple list.
	Tuple int
	// Similarity is the combined attribute×value similarity in [0,1].
	Similarity float64
	// Probability is the correspondence probability within the predicate's
	// probability space Pσ: Similarity normalized over all candidate tuples.
	Probability float64
}

// Mapping is one mapping σ between a subscription and an event: exactly one
// correspondence per predicate (§3.5).
type Mapping struct {
	Pairs []Correspondence
	// Score is the product of the pair similarities in [0,1]. It is the
	// matcher's relevance score for ranking events against a subscription.
	Score float64
	// Probability is the mapping's probability within the probability space
	// P over the enumerated mappings. For a top-1 match it is the product of
	// the correspondence probabilities; MatchTopK renormalizes it over the
	// returned mappings.
	Probability float64
}

// Matched reports whether the mapping clears the given score threshold;
// a zero-score mapping never matches.
func (m Mapping) Matched(threshold float64) bool {
	return m.Score > 0 && m.Score >= threshold
}

// Option configures a Matcher.
type Option interface {
	apply(*options)
}

type options struct {
	thematic bool
}

type thematicOption bool

func (o thematicOption) apply(opts *options) { opts.thematic = bool(o) }

// WithThematic selects thematic (default true) or non-thematic mode. In
// non-thematic mode the measure sees no themes: the domain-independent esa
// baseline of §5.2.5.
func WithThematic(enabled bool) Option { return thematicOption(enabled) }

// Matcher is the approximate semantic single-event matcher M. It is safe
// for concurrent use.
type Matcher struct {
	space *semantics.Space
	opts  options

	// rowIDs interns each distinct similarity-row identity — (kind, approx,
	// subscription theme, term) — appearing in prepared subscriptions to a
	// dense id, so the batch scorer's row memo is a small flat table indexed
	// by id instead of a hash map (see batch.go). Ids start at 1. rows holds
	// what a row needs beyond its id, once per row (see rowInfo): pages of
	// entries behind an atomic pointer, so scorers read it without a lock
	// while internRow appends under rowsMu.
	rowsMu sync.Mutex
	rowIDs map[uint64]uint32
	rows   atomic.Pointer[[]*rowPage]

	// sigs interns all-equality predicate signatures — the ordered
	// (attrRow, valueRow) id sequence of a subscription — to a dense id, so
	// the batch scorer can serve duplicate subscriptions (identical
	// predicate sets are common in large populations) from a score memo
	// instead of re-sweeping identical similarity matrices (see batch.go).
	// Ids start at 1.
	sigsMu sync.Mutex
	sigs   map[string]uint32

	// boundTab memoizes subscription-side score bounds per (row, event
	// theme) for every arena scored against a threshold (see bound.go);
	// nil until first used.
	boundTab atomic.Pointer[boundTable]
}

// New builds a matcher over a semantic space.
func New(space *semantics.Space, opts ...Option) *Matcher {
	o := options{thematic: true}
	for _, opt := range opts {
		opt.apply(&o)
	}
	m := &Matcher{
		space:  space,
		opts:   o,
		rowIDs: make(map[uint64]uint32),
		sigs:   make(map[string]uint32),
	}
	m.rows.Store(new([]*rowPage))
	return m
}

// rowInfo is what a similarity row needs beyond its id: the canonical term
// the scalar path measures, and for a relaxed row the term's unit
// projection under the row's theme, which the row kernel and the score
// bounds dot. The unit is a copy of the space's, so it stays valid across
// Space.ResetCaches (projections are deterministic: a rebuilt one has the
// same bits). Exact rows compare ordinals only and keep no unit.
type rowInfo struct {
	term string
	unit *sparse.Unit
}

// rowPageBits sizes one page of the row table: 512 entries, 12 KB.
const rowPageBits = 9

type rowPage [1 << rowPageBits]rowInfo

// internRow interns one similarity-row identity to its dense id, recording
// its rowInfo on first sight. The id space grows with the distinct (kind,
// approx, theme, term) combinations of the prepared subscription
// population, not with the population itself. A new relaxed row's unit is
// resolved outside the lock, since it may build a projection.
func (m *Matcher) internRow(kind rowKind, approx bool, theme *semantics.CompiledTheme, term string, termOrd uint32) uint32 {
	key := rowKeyOf(kind, approx, theme.Ord(), termOrd)
	m.rowsMu.Lock()
	id, ok := m.rowIDs[key]
	m.rowsMu.Unlock()
	if ok {
		return id
	}
	info := rowInfo{term: term}
	if approx {
		u, _ := m.space.ResolveUnit(term, theme)
		info.unit = &u
	}
	m.rowsMu.Lock()
	defer m.rowsMu.Unlock()
	if id, ok := m.rowIDs[key]; ok {
		return id
	}
	id = uint32(len(m.rowIDs)) + 1
	m.rowIDs[key] = id
	pages := *m.rows.Load()
	if p := int(id >> rowPageBits); p == len(pages) {
		// Readers may hold the old slice, so it is never appended to in
		// place.
		grown := append(pages[:p:p], new(rowPage))
		m.rows.Store(&grown)
		pages = grown
	}
	pages[id>>rowPageBits][id&(1<<rowPageBits-1)] = info
	return id
}

// row returns the entry of a row id internRow handed out. The entry was
// written before the id reached any prepared subscription, so a scorer
// holding one reads it without a lock.
func (m *Matcher) row(id uint32) *rowInfo {
	return &(*m.rows.Load())[id>>rowPageBits][id&(1<<rowPageBits-1)]
}

// sigID interns one all-equality predicate signature to its dense id. Two
// subscriptions share an id exactly when their predicate descriptor
// sequences are identical — same row ids in the same order — which makes
// their batch-scored similarity matrices, and therefore their scores,
// bit-identical against any event.
func (m *Matcher) sigID(key []byte) uint32 {
	m.sigsMu.Lock()
	id, ok := m.sigs[string(key)]
	if !ok {
		id = uint32(len(m.sigs)) + 1
		m.sigs[string(key)] = id
	}
	m.sigsMu.Unlock()
	return id
}

// Thematic reports whether the matcher passes themes to the measure.
func (m *Matcher) Thematic() bool { return m.opts.thematic }

// SimilarityMatrix returns the combined attributes-values similarity matrix
// between the subscription's predicates (rows) and the event's tuples
// (columns), as in Fig. 4. Entry (i,j) is simAttr(i,j) * simValue(i,j),
// where each factor is 1 for canonically equal terms, the parametric
// semantic relatedness for ~-relaxed terms, and 0 for unequal exact terms.
func (m *Matcher) SimilarityMatrix(s *event.Subscription, e *event.Event) [][]float64 {
	return m.similarityMatrixPrepared(m.PrepareSubscription(s), m.PrepareEvent(e))
}

// termSimilarity compares one canonical subscription term against one
// canonical event term. Canonically equal terms always have similarity 1
// (even under ~: a term is maximally similar to itself). Without ~,
// anything else is 0. With ~, the parametric semantic measure decides.
func (m *Matcher) termSimilarity(subTerm string, approx bool, eventTerm string, subTheme, eventTheme *semantics.CompiledTheme) float64 {
	if subTerm == eventTerm {
		return 1
	}
	if !approx {
		return 0
	}
	return m.space.RelatednessCompiled(subTerm, subTheme, eventTerm, eventTheme)
}

// Match runs the top-1 mode: the most probable mapping σ* between s and e.
// ok is false when no feasible mapping exists (more predicates than tuples)
// or the best mapping has zero score (some predicate matches no tuple at
// all).
func (m *Matcher) Match(s *event.Subscription, e *event.Event) (Mapping, bool) {
	return m.MatchPrepared(m.PrepareSubscription(s), m.PrepareEvent(e))
}

// bestMappingHungarian solves the general case (more than three
// predicates) with the Hungarian solver over log-similarities. When a
// borrowed buffer is supplied the log-weight matrix is taken from it
// instead of allocated.
func (m *Matcher) bestMappingHungarian(buf *simBuf, sim [][]float64) (Mapping, bool) {
	var lw [][]float64
	if buf != nil {
		lw = buf.logMatrix(sim)
	} else {
		lw = logWeights(sim)
	}
	sol, feasible := assign.Best(lw)
	if !feasible {
		return Mapping{}, false
	}
	mp := m.mappingFromCols(sim, sol.Cols)
	if mp.Score == 0 {
		return Mapping{}, false
	}
	return mp, true
}

// MatchTopK runs the top-k mode: the k most probable mappings in
// non-increasing score order, with Probability renormalized over the
// returned set (the probability space P of Fig. 4). Producing top-k
// mappings "increases the chance of hitting the correct mapping" [13]; they
// feed complex event processing downstream.
func (m *Matcher) MatchTopK(s *event.Subscription, e *event.Event, k int) []Mapping {
	sim := m.SimilarityMatrix(s, e)
	sols := assign.TopK(logWeights(sim), k)
	var out []Mapping
	total := 0.0
	for _, sol := range sols {
		mp := m.mappingFromCols(sim, sol.Cols)
		if mp.Score == 0 {
			continue // zero-probability mappings carry no information
		}
		total += mp.Score
		out = append(out, mp)
	}
	for i := range out {
		if total > 0 {
			out[i].Probability = out[i].Score / total
		}
	}
	return out
}

// Score is a convenience for ranking: the top-1 mapping score, 0 when no
// feasible mapping exists.
func (m *Matcher) Score(s *event.Subscription, e *event.Event) float64 {
	mp, ok := m.Match(s, e)
	if !ok {
		return 0
	}
	return mp.Score
}

// logWeights converts similarities to log space so that the maximum-sum
// assignment is the maximum-product mapping (freshly allocated; the recycled
// hot path uses simBuf.logMatrix instead).
func logWeights(sim [][]float64) [][]float64 {
	out := make([][]float64, len(sim))
	for i, row := range sim {
		out[i] = make([]float64, len(row))
	}
	fillLogWeights(out, sim)
	return out
}

// fillLogWeights writes the log-space form of sim into out (same shape).
// Zero similarity becomes a forbidden cell only if the whole row has an
// alternative; to keep the assignment feasible when a predicate matches
// nothing (its score is then 0), zeros map to a very negative but finite
// weight.
func fillLogWeights(out, sim [][]float64) {
	const zeroLog = -1e9
	for i, row := range sim {
		for j, v := range row {
			if v <= 0 {
				out[i][j] = zeroLog
			} else {
				out[i][j] = math.Log(v)
			}
		}
	}
}
