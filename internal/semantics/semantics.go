// Package semantics implements the paper's distributional-semantics
// substrate: an ESA-style semantic measure over a corpus index (§3.1) and
// the Parametric Vector Space Model with thematic projection (§4, Fig. 5,
// Algorithm 1).
//
// The central operation is the parametric semantic measure
//
//	sm : T × 2^TH × T × 2^TH → [0,1]
//
// (§4.3): given a subscription term and an event term, each with its theme
// tags, project both terms into their thematic subspaces (Algorithm 1),
// measure the Euclidean distance of the projections (Eq. 5), and map to
// relatedness 1/(d+1) (Eq. 6). Empty themes select the full, non-thematic
// space, which is exactly the paper's non-thematic baseline measure.
//
// # Concurrency
//
// A Space is safe for concurrent use and built to scale reads across cores:
// its caches — the unit projections of the full space and of each compiled
// theme, and the memoized scores — are striped over sharded maps with
// per-shard read-write locks, so concurrent RelatednessCompiled calls on
// warm caches never serialize on a global lock. Cold entries are
// single-flighted: a (term, theme) projection missed by N goroutines at
// once is computed exactly once while the other N-1 wait. A compiled
// theme's basis is built once, at first use, and read with one atomic
// load. Compiled themes, term ordinals and the raw-term memo each sit under
// a read-mostly lock whose warm path is an RLock. Cached sparse.Unit values
// are shared between callers and must be treated as immutable.
package semantics

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"thematicep/internal/index"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// Distance selects the vector distance used by the measure.
type Distance int

// Supported distances. The paper's Eq. 5 uses Euclidean over the projected
// vectors (applied here to L2-normalized projections, see Relatedness);
// §3.1 names cosine as the other standard choice, exercised by the distance
// ablation (DESIGN.md §4).
const (
	Euclidean Distance = iota + 1
	Cosine
)

// Option configures a Space.
type Option interface {
	apply(*options)
}

type options struct {
	distance     Distance
	recomputeIDF bool
	caching      bool
}

type distanceOption Distance

func (d distanceOption) apply(o *options) { o.distance = Distance(d) }

// WithDistance selects the distance function (default Euclidean).
func WithDistance(d Distance) Option { return distanceOption(d) }

type recomputeIDFOption bool

func (r recomputeIDFOption) apply(o *options) { o.recomputeIDF = bool(r) }

// WithIDFRecompute enables or disables the idf recomputation of Algorithm 1
// lines 8-10 (default enabled). Disabling it keeps the full-space weights
// after basis filtering; it exists for the ablation benches.
func WithIDFRecompute(enabled bool) Option { return recomputeIDFOption(enabled) }

type cachingOption bool

func (c cachingOption) apply(o *options) { o.caching = bool(c) }

// WithCaching enables or disables the unit projection caches (default
// enabled) — the engineering the paper's §5.3.2 calls "caching and indexing
// techniques". A compiled theme's basis is kept whatever this option says,
// and the score memo is governed by PrecomputeScores alone.
func WithCaching(enabled bool) Option { return cachingOption(enabled) }

// Space is a parametric distributional vector space over an index. It is
// safe for concurrent use; see the package documentation for the
// concurrency contract.
type Space struct {
	ix   *index.Index
	opts options

	// scoreCache gates the sm() memo, off until PrecomputeScores turns it
	// on; atomic because that may happen while matchers are running.
	scoreCache atomic.Bool

	unitFull cache[sparse.Unit] // term -> unit-normalized full-space vector
	scores   cache[float64]     // sm() memo

	themesMu  sync.RWMutex
	themesRaw map[string]*CompiledTheme // length-prefixed raw tags -> compiled theme
	themesKey map[string]*CompiledTheme // canonical key -> compiled theme

	// termOrds interns canonical terms to dense ordinals (starting at 1)
	// so hot-path memo keys can be flat integers instead of strings. The
	// ordinals are only coherent within one Space.
	termOrdsMu sync.RWMutex
	termOrds   map[string]uint32

	// termsRaw memoizes CanonicalTerms: raw term -> canonical form and
	// ordinal, bounded by termsRawCap.
	termsRawMu sync.RWMutex
	termsRaw   map[string]canonTerm

	// Computation counters: how many times the expensive cold paths
	// actually ran. They certify the single-flight property (computations
	// == cache entries under concurrent load) and feed cold-start
	// experiments.
	termComputes atomic.Uint64
	projComputes atomic.Uint64
}

// CompiledTheme is a resolved theme tag set: its canonical key plus a short
// interned id used in hot-path cache keys. Compile once per subscription or
// event and reuse; the zero of themes (nil) means the full space.
type CompiledTheme struct {
	// Key is the canonical theme key (ThemeKey of the tags).
	Key string
	// Tags are the original tags.
	Tags []string

	id  string // short interned id, stable within one Space
	ord uint32 // dense ordinal (≥1), stable within one Space

	// units caches the unit-normalized projections of this theme, keyed by
	// canonical term alone. Hanging the cache off the compiled theme keeps
	// the warm relatedness path free of composite-key construction: a
	// term+theme lookup is a single string hash, no allocation.
	units cache[sparse.Unit]

	// basis is the theme's basis, built on first use by basisOf.
	basis atomic.Pointer[thematicBasis]
}

// thematicBasis is a theme's basis (Fig. 5 steps 2-3) in the two forms its
// readers need, built together: project merges postings against the sorted
// ids, RelatednessBound masks a unit with the bitmap (bit d&63 of word d>>6,
// one bit per document of the index: 23 words for 1,424 documents).
type thematicBasis struct {
	ids  []int32
	bits []uint64
}

// NewSpace builds a Space over ix.
func NewSpace(ix *index.Index, opts ...Option) *Space {
	o := options{
		distance:     Euclidean,
		recomputeIDF: true,
		caching:      true,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	return &Space{
		ix:        ix,
		opts:      o,
		themesRaw: make(map[string]*CompiledTheme),
		themesKey: make(map[string]*CompiledTheme),
		termOrds:  make(map[string]uint32),
		termsRaw:  make(map[string]canonTerm),
	}
}

// themesRawCap bounds the raw-ordering memo of Compile. Every distinct
// ordering/duplication of the same tag set is a distinct raw key, so an
// adversarial or highly varied tag stream could otherwise grow the map
// forever even though the canonical theme set is tiny. When the memo fills
// up it is simply cleared: hot orderings re-enter on their next call, and
// themesKey (bounded by genuinely distinct themes) is never dropped. Every
// published event's theme resolves here, so the cap keeps a stream of a few
// thousand orderings warm.
const themesRawCap = 4096

// Compile resolves a theme tag set once, memoized by the raw tags.
// Relatedness sits on the matching hot path and is called with the same
// theme slices for every event; recanonicalizing, sorting, and embedding
// full theme keys into cache keys on every call would dominate matching
// time. The raw memo is bounded by themesRawCap; its key is each tag's
// uvarint length then its bytes, so no two tag lists share a key whatever
// bytes the tags hold, and a warm call whose key fits the 256-byte stack
// buffer allocates nothing. Compile(nil) returns nil: the full space.
func (s *Space) Compile(theme []string) *CompiledTheme {
	if len(theme) == 0 {
		return nil
	}
	var stack [256]byte
	raw := stack[:0]
	for _, tag := range theme {
		raw = binary.AppendUvarint(raw, uint64(len(tag)))
		raw = append(raw, tag...)
	}
	s.themesMu.RLock()
	t, ok := s.themesRaw[string(raw)]
	s.themesMu.RUnlock()
	if ok {
		return t
	}

	key := ThemeKey(theme)
	s.themesMu.Lock()
	t, ok = s.themesKey[key]
	if !ok {
		t = &CompiledTheme{
			Key:  key,
			Tags: append([]string(nil), theme...),
			id:   "t" + itoa(len(s.themesKey)),
			ord:  uint32(len(s.themesKey)) + 1,
		}
		s.themesKey[key] = t
	}
	if len(s.themesRaw) >= themesRawCap {
		s.themesRaw = make(map[string]*CompiledTheme, themesRawCap)
	}
	s.themesRaw[string(raw)] = t
	s.themesMu.Unlock()
	return t
}

// canonTerm is a raw term resolved against a Space: its canonical form
// and that form's TermOrd.
type canonTerm struct {
	c   string
	ord uint32
}

// termsRawCap bounds the raw-term memo of CanonicalTerms. Like themesRaw
// it is keyed by spelling, so a varied stream could grow it without limit;
// when it fills up it is cleared, and hot spellings re-enter on their next
// call. Ordinals are never dropped: termOrds is keyed by canonical form.
const termsRawCap = 1 << 16

// CanonicalTerms replaces each raw term of terms by its canonical form
// (text.Canonical) and sets ords[i] to that form's TermOrd, memoized by
// spelling: a stream of events over a stable vocabulary canonicalizes each
// spelling once per Space, not once per tuple. It returns how many terms
// the memo already held. ords must be at least as long as terms. Safe for
// concurrent use.
func (s *Space) CanonicalTerms(terms []string, ords []uint32) (hits int) {
	s.termsRawMu.RLock()
	for i, raw := range terms {
		t, ok := s.termsRaw[raw]
		if ok {
			terms[i] = t.c
			hits++
		}
		ords[i] = t.ord // 0, which no term has, marks a miss
	}
	s.termsRawMu.RUnlock()
	for i, raw := range terms {
		if ords[i] != 0 {
			continue
		}
		// A spelling met twice in terms is resolved, and counted as a
		// miss, once.
		s.termsRawMu.RLock()
		t, ok := s.termsRaw[raw]
		s.termsRawMu.RUnlock()
		if ok {
			terms[i], ords[i] = t.c, t.ord
			hits++
			continue
		}
		t = canonTerm{c: text.Canonical(raw)}
		t.ord = s.TermOrd(t.c)
		s.termsRawMu.Lock()
		if len(s.termsRaw) >= termsRawCap {
			s.termsRaw = make(map[string]canonTerm, termsRawCap)
		}
		// A clone, so the memo never pins a larger string raw may point into.
		s.termsRaw[strings.Clone(raw)] = t
		s.termsRawMu.Unlock()
		terms[i], ords[i] = t.c, t.ord
	}
	return hits
}

// itoa is a minimal non-negative integer formatter (avoids strconv on the
// compile path; compile volume is tiny but keep it dependency-light).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ord returns the theme's dense ordinal, unique and stable within the
// Space that compiled it (≥ 1; by convention 0 denotes the nil theme /
// full space). Hot-path memo tables use it as a flat integer key.
func (t *CompiledTheme) Ord() uint32 {
	if t == nil {
		return 0
	}
	return t.ord
}

// TermOrd interns a canonical term to a dense ordinal (≥ 1), unique and
// stable within this Space. Like theme ordinals it exists so per-event memo
// keys can be flat integers — two terms are canonically equal iff their
// ordinals are equal. Safe for concurrent use.
func (s *Space) TermOrd(term string) uint32 {
	s.termOrdsMu.RLock()
	ord, ok := s.termOrds[term]
	s.termOrdsMu.RUnlock()
	if ok {
		return ord
	}
	s.termOrdsMu.Lock()
	ord, ok = s.termOrds[term]
	if !ok {
		ord = uint32(len(s.termOrds)) + 1
		s.termOrds[term] = ord
	}
	s.termOrdsMu.Unlock()
	return ord
}

// Index returns the underlying inverted index.
func (s *Space) Index() *index.Index { return s.ix }

// TermVector returns the full-space distributional vector of a (possibly
// multi-word) term: the sum of its tokens' TF/IDF vectors (Eq. 1/4). It is
// computed afresh on every call.
func (s *Space) TermVector(term string) sparse.Vector {
	return s.termVector(text.Canonical(term))
}

func (s *Space) termVector(canonical string) sparse.Vector {
	s.termComputes.Add(1)
	var v sparse.Vector
	for _, tok := range text.Tokenize(canonical) {
		tv := s.ix.Vector(tok)
		if tv.IsZero() {
			continue
		}
		if v.IsZero() {
			v = tv
		} else {
			v = sparse.Add(v, tv)
		}
	}
	return v
}

// ThemeKey returns the canonical cache key of a theme tag set. Tag order
// and duplicates do not matter.
func ThemeKey(theme []string) string {
	if len(theme) == 0 {
		return ""
	}
	keys := make([]string, 0, len(theme))
	seen := make(map[string]bool, len(theme))
	for _, tag := range theme {
		k := text.Canonical(tag)
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// ThemeBasis returns the thematic basis of a theme tag set: the sorted
// document ids where the theme's distributional vector is non-zero
// (Fig. 5 steps 2-3), computed afresh on every call. An empty theme yields a
// nil basis, meaning the full space.
func (s *Space) ThemeBasis(theme []string) []int32 {
	t := s.Compile(theme)
	if t == nil {
		return nil
	}
	return s.themeBasis(t.Key)
}

// basisOf returns t's basis, building it on first use. Two racing builders
// store equal values.
func (s *Space) basisOf(t *CompiledTheme) *thematicBasis {
	if b := t.basis.Load(); b != nil {
		return b
	}
	b := &thematicBasis{ids: s.themeBasis(t.Key), bits: make([]uint64, (s.ix.NumDocs()+63)/64)}
	for _, d := range b.ids {
		b.bits[d>>6] |= 1 << (uint(d) & 63)
	}
	t.basis.Store(b)
	return b
}

func (s *Space) themeBasis(themeKey string) []int32 {
	set := make(map[int32]struct{})
	for _, tag := range strings.Split(themeKey, "|") {
		// A multi-word tag selects the documents containing its phrase, not
		// every document mentioning one of its words: "land transport" must
		// not pull in every "land" document.
		for _, d := range s.ix.PhraseDocs(text.Tokenize(tag)) {
			set[d] = struct{}{}
		}
	}
	basis := make([]int32, 0, len(set))
	for d := range set {
		basis = append(basis, d)
	}
	sort.Slice(basis, func(i, j int) bool { return basis[i] < basis[j] })
	return basis
}

// Project implements Algorithm 1: the thematic projection of term given the
// theme tag set. Components outside the thematic basis are zeroed; weights
// inside the basis are recomputed with the basis-relative idf
// (lines 8-10). An empty theme returns the full-space vector.
func (s *Space) Project(term string, theme []string) sparse.Vector {
	return s.ProjectCompiled(text.Canonical(term), s.Compile(theme))
}

// ProjectCompiled is Project for pre-canonicalized terms and compiled
// themes. It is computed afresh on every call; the measure reads
// projections through the unit caches instead.
func (s *Space) ProjectCompiled(termKey string, t *CompiledTheme) sparse.Vector {
	if t == nil {
		return s.termVector(termKey)
	}
	return s.project(termKey, t)
}

func (s *Space) project(termKey string, t *CompiledTheme) sparse.Vector {
	s.projComputes.Add(1)
	basis := s.basisOf(t).ids
	if len(basis) == 0 {
		// The theme selects nothing: the space is filtered completely
		// (the paper's "rare terms" outlier case, §5.3.2).
		return sparse.Vector{}
	}
	var out sparse.Vector
	for _, tok := range text.Tokenize(termKey) {
		docs, tfs := s.ix.Columns(tok)
		if len(docs) == 0 {
			continue
		}
		// df of tok inside the basis: both the postings list and the basis
		// are sorted by document id, so a single linear merge walk counts
		// the intersection in O(P+B) — the binary-search-per-posting
		// alternative costs O(P·log B) and dominated Algorithm 1 on large
		// themes.
		dfB := 0
		for i, j := 0, 0; i < len(docs) && j < len(basis); {
			switch d := docs[i]; {
			case d == basis[j]:
				dfB++
				i++
				j++
			case d < basis[j]:
				i++
			default:
				j++
			}
		}
		if dfB == 0 {
			// No occurrence in the subspace.
			continue
		}
		// Add-one-smoothed basis idf: a token present in every basis
		// document is heavily down-weighted but not annihilated — without
		// smoothing, a term naming its own theme ("energy consumption"
		// under an energy theme) would lose its dominant token entirely and
		// degrade into residual noise.
		idfB := math.Log(float64(len(basis)+1) / float64(dfB))
		ids := make([]int32, 0, dfB)
		weights := make([]float64, 0, dfB)
		for i, j := 0, 0; i < len(docs) && j < len(basis); {
			switch d := docs[i]; {
			case d == basis[j]:
				ids = append(ids, d)
				weights = append(weights, tfs[i]*idfB)
				i++
				j++
			case d < basis[j]:
				i++
			default:
				j++
			}
		}
		tv := sparse.New(ids, weights)
		if out.IsZero() {
			out = tv
		} else {
			out = sparse.Add(out, tv)
		}
	}
	if !s.opts.recomputeIDF {
		// Ablation mode: basis filtering only, full-space weights.
		return sparse.Mask(s.termVector(termKey), basis)
	}
	return out
}

// Relatedness is the parametric semantic measure sm(ths, ts, the, te)
// (§4.3): thematic projections of both terms, distance (Eq. 5), relatedness
// (Eq. 6). Passing nil themes measures in the full space (non-thematic
// mode). Two completely filtered (zero) projections yield 0: the subspace
// offers no evidence of relatedness.
func (s *Space) Relatedness(subTerm string, subTheme []string, eventTerm string, eventTheme []string) float64 {
	return s.RelatednessCompiled(text.Canonical(subTerm), s.Compile(subTheme),
		text.Canonical(eventTerm), s.Compile(eventTheme))
}

// RelatednessCompiled is Relatedness for pre-canonicalized terms and
// compiled themes — the matching hot path.
func (s *Space) RelatednessCompiled(subTerm string, subTheme *CompiledTheme, eventTerm string, eventTheme *CompiledTheme) float64 {
	if s.scoreCache.Load() {
		cacheKey := subTerm + "\x00" + themeID(subTheme) + "\x00" +
			eventTerm + "\x00" + themeID(eventTheme)
		if r, ok := s.scores.get(cacheKey); ok {
			return r
		}
		return s.scores.do(cacheKey, func() float64 {
			return s.relatedness(subTerm, subTheme, eventTerm, eventTheme)
		})
	}
	return s.relatedness(subTerm, subTheme, eventTerm, eventTheme)
}

// relatedness is the uncached measure body of RelatednessCompiled: a
// function of the dot product of two cached, L2-normalized projections
// under either distance (Distance.ofDot). Normalization makes the measure
// scale-invariant, so the long tf-idf vectors of high-frequency terms are
// not penalized against short ones. Two rules, shared with the row kernel,
// come first: a completely filtered (zero) projection on either side scores
// 0 — it offers no evidence of meaning (§5.3.2) and would otherwise be
// spuriously close to everything under Euclidean distance — and the same
// term under the same theme (compiled themes are interned) scores exactly
// 1, which the dot product would lose (â·â = 1−ε in floats).
func (s *Space) relatedness(subTerm string, subTheme *CompiledTheme, eventTerm string, eventTheme *CompiledTheme) float64 {
	a := s.unitProjection(subTerm, subTheme)
	switch {
	case a.IsZero():
		return 0
	case subTerm == eventTerm && subTheme == eventTheme:
		return 1
	}
	b := s.unitProjection(eventTerm, eventTheme)
	if b.IsZero() {
		return 0
	}
	return s.opts.distance.ofDot(sparse.DotUnit(a, b))
}

// identityBand is how far below 1 the dot product of two identical unit
// projections can fall by rounding alone: a gathered dot of unit vectors is
// off by at most nnz·ε ≈ 1.6e-13 at the index's sizes (see boundMargin), and
// distinct terms share a projection whenever their tokens do (a reordered
// or stop-word-padded phrase). A dot within the band is an identity, and
// Eq. 5 puts identical vectors at distance 0.
const identityBand = 1e-12

// ofDot maps the dot product d of two nonzero unit projections to
// relatedness, the one definition RelatednessCompiled and
// RelatednessRowPreUnits share. Euclidean is Eq. 5 on unit vectors,
// ‖â−b̂‖ = √(2−2d), mapped by Eq. 6; in floats the identity agrees with the
// distance of Scale-normalized copies to ~√(2·nnz·ε) (2−2d cancels as
// d → 1). Cosine (§3.1) is d itself. A dot within identityBand of 1, or
// above it, is exactly 1, never NaN; the map stays non-decreasing, so the
// score bounds built on it hold.
func (dist Distance) ofDot(d float64) float64 {
	switch {
	case d >= 1-identityBand:
		return 1
	case dist == Cosine:
		return d
	}
	return 1 / (math.Sqrt(2-2*d) + 1)
}

// unitProjection returns the cached unit-normalized thematic projection of
// a canonical term — the measure's working representation. The
// full-space forms live in one Space-wide cache; thematic forms live in a
// per-theme cache keyed by term alone, so the warm lookup never builds a
// composite key string.
func (s *Space) unitProjection(termKey string, t *CompiledTheme) sparse.Unit {
	if !s.opts.caching {
		return s.buildUnit(termKey, t)
	}
	c := &s.unitFull
	if t != nil {
		c = &t.units
	}
	if u, ok := c.get(termKey); ok {
		return u
	}
	return c.do(termKey, func() sparse.Unit { return s.buildUnit(termKey, t) })
}

// buildUnit computes the unit projection behind unitProjection. Every unit
// the space hands out is built here, so this is where the row kernel's
// scratch-sizing invariant is asserted: projection ids are document ids of
// the index, all below NumDocs().
func (s *Space) buildUnit(termKey string, t *CompiledTheme) sparse.Unit {
	u := s.ProjectCompiled(termKey, t).Normalize()
	if u.Vec.DimBound() > s.ix.NumDocs() {
		panic("semantics: projection id outside the index's document range")
	}
	return u
}

// ResolveUnits fills out[j] with the unit-normalized thematic projection
// of each canonical term — the event-side column of the row kernel,
// resolved once per event instead of once per row. len(out) must be at
// least len(terms).
func (s *Space) ResolveUnits(terms []string, t *CompiledTheme, out []sparse.Unit) {
	for j, term := range terms {
		out[j] = s.unitProjection(term, t)
	}
}

// ResolveUnit is the scalar form of ResolveUnits: the unit-normalized
// thematic projection of one canonical term. Prepared subscriptions resolve
// their predicate terms once through this at preparation time (see
// matcher.PrepareSubscription). ok is always true, because every scoring
// configuration measures relatedness on unit projections.
func (s *Space) ResolveUnit(term string, t *CompiledTheme) (u sparse.Unit, ok bool) {
	return s.unitProjection(term, t), true
}

// Filtered reports whether the thematic projection of a canonical term
// under t has zero norm — the space is "filtered completely" for it
// (§5.3.2). Such a term relates 0 to every other term whatever the scoring
// configuration: the measure returns 0 on a zero-norm side under both
// distances, and the score cache memoizes that same measure. Only canonical
// identity, which the matcher decides before asking the space, can relate
// it to anything.
func (s *Space) Filtered(term string, t *CompiledTheme) bool {
	return s.unitProjection(term, t).IsZero()
}

// RelatednessRowPreUnits fills out[j] with RelatednessCompiled(subTerm,
// subTheme, eventTerms[j], eventTheme) for every column j that cols selects
// (bit j&63, so the all-ones mask is a full row at any width) and leaves
// the other cells as they were. Both sides' unit projections come
// pre-resolved (a by ResolveUnit against subTheme, eventUnits by
// ResolveUnits against eventTheme) — the batch path's one row kernel, for
// whole rows and single cells alike: no cache lookup on either side. a is
// scattered once into dense, every selected column's dot product is then a
// gather over the event unit's ids alone (sparse.DotDense, bit-identical to
// the merge behind RelatednessCompiled) mapped by the same Distance.ofDot,
// and dense is all-zero again on return. dense must be all-zero on entry
// and Index().NumDocs() long — every projection id is below that, asserted
// where units are built. Term identity runs on interned ordinals (TermOrd),
// whose equality is canonical-string equality, so every cell stays
// bit-identical to the scalar call. Outside identity columns, out[j] is
// nonzero only when a and eventUnits[j] both are: a zero side scores 0 by
// definition (§5.3.2). Under Euclidean distance the converse holds too —
// two nonzero unit vectors are at most 2 apart, so 1/(d+1) ≥ 1/3 — while
// cosine is also 0 for disjoint supports. So LiveColumns bounds a row's
// support without a dot product, and exactly under Euclidean distance: a
// caller that needs only that bound can skip the call.
func (s *Space) RelatednessRowPreUnits(a *sparse.Unit, subOrd uint32, subTheme *CompiledTheme, eventOrds []uint32, eventUnits []sparse.Unit, eventTheme *CompiledTheme, dense, out []float64, cols uint64) {
	out, eventOrds = out[:len(eventUnits)], eventOrds[:len(eventUnits)]
	if a.IsZero() {
		for j := range out {
			if cols>>(uint(j)&63)&1 != 0 {
				out[j] = 0
			}
		}
		return
	}
	// The identity rule needs equal themes as well as equal terms. Term
	// ordinals start at 1, so under different themes compare against 0,
	// which no event term carries, and the loop tests ordinals only.
	same := subOrd
	if subTheme != eventTheme {
		same = 0
	}
	dist := s.opts.distance
	a.Scatter(dense)
	for j := range eventUnits {
		b := &eventUnits[j]
		switch {
		case cols>>(uint(j)&63)&1 == 0:
		case eventOrds[j] == same:
			out[j] = 1
		case b.IsZero():
			out[j] = 0
		default:
			out[j] = dist.ofDot(sparse.DotDense(dense, b))
		}
	}
	a.Unscatter(dense)
}

// boundMargin is the slack RelatednessBound adds to a masked norm before
// mapping it to relatedness. It sits in dot space, where the rounding it
// covers is bounded: a gathered dot product of unit vectors is off by at most
// nnz·ε ≈ 1.6e-13 at the index's sizes, and so is a masked norm. In
// relatedness space no fixed slack would do, because ofDot's slope is
// unbounded as the dot approaches 1.
const boundMargin = 1e-9

// RelatednessBound returns an upper bound on the relatedness of u with every
// unit projection under theme t, the identity rule aside: Algorithm 1 zeroes
// every component of such a projection b̂ outside basis(t), so by
// Cauchy–Schwarz u·b̂ = (u restricted to basis(t))·b̂ ≤ ‖u|basis(t)‖, and
// Distance.ofDot is non-decreasing under both distances. The bound holds
// whatever theme u was projected under, so it bounds a pair from either
// side; a pair's relatedness is at most the smaller of its two sides'
// bounds. A zero u relates 0 to everything; the full space (t nil) bounds
// nothing, 1.
func (s *Space) RelatednessBound(u *sparse.Unit, t *CompiledTheme) float64 {
	switch {
	case u.IsZero():
		return 0
	case t == nil:
		return 1
	}
	return s.opts.distance.ofDot(u.NormWithin(s.basisOf(t).bits) + boundMargin)
}

// RelatednessFloor returns the least relatedness two nonzero unit
// projections can have: ofDot(0), since projection weights are
// non-negative and so is every dot product. It is 1/(1+√2) under Euclidean
// distance and 0 under cosine.
func (s *Space) RelatednessFloor() float64 { return s.opts.distance.ofDot(0) }

// LiveColumns returns the support RelatednessRowPreUnits can give a row
// against the event-side units: bit j&63 set when units[j] is nonzero (so
// beyond 64 columns the bits fold, and only a zero result is exact).
func LiveColumns(units []sparse.Unit) uint64 {
	var live uint64
	for j := range units {
		if !units[j].IsZero() {
			live |= 1 << (uint(j) & 63)
		}
	}
	return live
}

// NonThematicRelatedness measures relatedness in the full space: the
// domain-independent esa of the paper's baseline (§5.2.5).
func (s *Space) NonThematicRelatedness(a, b string) float64 {
	return s.Relatedness(a, nil, b, nil)
}

// PrecomputeScores turns the score cache on — nothing else does, and
// nothing turns it off — and fills it with all pairwise non-thematic
// relatedness values between subscription terms and event terms. It
// reproduces the "precomputed esa scores" configuration of the prior-work
// comparison (§5, experiment E8): after precomputation, ScorePrepared never
// touches vectors for those pairs. The memo holds the measure's own values,
// so the row kernel, which never reads it, keeps their bits.
func (s *Space) PrecomputeScores(subTerms, eventTerms []string) {
	s.scoreCache.Store(true)
	for _, a := range subTerms {
		for _, b := range eventTerms {
			s.NonThematicRelatedness(a, b)
		}
	}
}

// PrecomputeProjections warms the unit projection caches for every
// (term, theme) pair — the paper's "building an efficient indexing for
// thematic projection" future-work item (§7): a broker that knows its
// subscription and event themes ahead of time projects its vocabulary up
// front and pays only distance computation at match time.
func (s *Space) PrecomputeProjections(terms []string, themes ...[]string) {
	for _, theme := range themes {
		t := s.Compile(theme)
		for _, term := range terms {
			s.unitProjection(text.Canonical(term), t)
		}
	}
}

// CacheStats reports cache entry counts for observability and cold-start
// experiments: unit projections (the full-space cache plus every compiled
// theme's) and memoized scores.
func (s *Space) CacheStats() (units, scores int) {
	n := s.unitFull.len()
	for _, t := range s.compiledThemes() {
		n += t.units.len()
	}
	return n, s.scores.len()
}

// Computes reports how many times the expensive cold paths actually ran:
// full-space term-vector constructions and thematic projections
// (Algorithm 1 executions). Under the single-flight contract each cached
// unit costs exactly one computation regardless of concurrency.
func (s *Space) Computes() (termVectors, projections uint64) {
	return s.termComputes.Load(), s.projComputes.Load()
}

// ResetCaches drops every cache: the unit projections, the score memo and
// each compiled theme's basis. Cold-start experiments (§7 future work) use
// it to measure first-event latency. Concurrent computations finishing
// during a reset may repopulate entries they were already producing.
func (s *Space) ResetCaches() {
	s.unitFull.reset()
	s.scores.reset()
	for _, t := range s.compiledThemes() {
		t.units.reset()
		t.basis.Store(nil)
	}
}

// compiledThemes snapshots the interned themes. Callers walk the snapshot
// outside themesMu, which is safe because compiled themes are never deleted.
func (s *Space) compiledThemes() []*CompiledTheme {
	s.themesMu.RLock()
	defer s.themesMu.RUnlock()
	themes := make([]*CompiledTheme, 0, len(s.themesKey))
	for _, t := range s.themesKey {
		themes = append(themes, t)
	}
	return themes
}

// themeID returns the interned id of a compiled theme ("" for the full
// space).
func themeID(t *CompiledTheme) string {
	if t == nil {
		return ""
	}
	return t.id
}
