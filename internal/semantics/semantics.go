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
// every cache (term vectors, theme bases, projections, memoized scores) is
// striped over sharded maps with per-shard read-write locks, so concurrent
// RelatednessCompiled calls on warm caches never serialize on a global
// lock. Cold entries are single-flighted: a (term, theme) projection missed
// by N goroutines at once is computed exactly once while the other N-1
// wait. Compiled themes are interned under a read-mostly lock whose warm
// path is an RLock. Cached sparse.Vector values are shared between callers
// and must be treated as immutable.
package semantics

import (
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
	scoreCache   bool
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

// WithCaching enables or disables the term-vector, basis, and projection
// caches (default enabled) — the engineering the paper's §5.3.2 calls
// "caching and indexing techniques".
func WithCaching(enabled bool) Option { return cachingOption(enabled) }

type scoreCacheOption bool

func (c scoreCacheOption) apply(o *options) { o.scoreCache = bool(c) }

// WithScoreCache enables memoization of pairwise relatedness scores
// (default disabled). The paper's normal matcher computes relatedness at
// match time; its "precomputed esa scores" configuration (§5, the ~91,000
// ev/s result) corresponds to enabling this and calling PrecomputeScores.
func WithScoreCache(enabled bool) Option { return scoreCacheOption(enabled) }

// Space is a parametric distributional vector space over an index. It is
// safe for concurrent use; see the package documentation for the
// concurrency contract.
type Space struct {
	ix   *index.Index
	opts options

	// scoreCache gates the sm() memo; atomic because PrecomputeScores may
	// enable it while matchers are running.
	scoreCache atomic.Bool

	termVecs   cache[sparse.Vector] // full-space term vectors
	themeBases cache[[]int32]       // theme key -> basis doc ids
	projVecs   cache[sparse.Vector] // term "\x00" theme id -> projection
	unitFull   cache[sparse.Unit]   // term -> unit-normalized full-space vector
	scores     cache[float64]       // sm() memo

	themesMu  sync.RWMutex
	themesRaw map[string]*CompiledTheme // raw joined tags -> compiled theme
	themesKey map[string]*CompiledTheme // canonical key -> compiled theme

	// termOrds interns canonical terms to dense ordinals (starting at 1)
	// so hot-path memo keys can be flat integers instead of strings. The
	// ordinals are only coherent within one Space.
	termOrdsMu sync.RWMutex
	termOrds   map[string]uint32

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
	// the warm Euclidean relatedness path free of composite-key
	// construction: a term+theme lookup is a single string hash, no
	// allocation (the projVecs path must concatenate term and theme id into
	// a fresh key string on every call).
	units cache[sparse.Unit]
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
	s := &Space{
		ix:        ix,
		opts:      o,
		themesRaw: make(map[string]*CompiledTheme),
		themesKey: make(map[string]*CompiledTheme),
		termOrds:  make(map[string]uint32),
	}
	s.scoreCache.Store(o.scoreCache)
	return s
}

// themesRawCap bounds the raw-ordering memo of Compile. Every distinct
// ordering/duplication of the same tag set is a distinct raw key, so an
// adversarial or highly varied tag stream could otherwise grow the map
// forever even though the canonical theme set is tiny. When the memo fills
// up it is simply cleared: hot orderings re-enter on their next call, and
// themesKey (bounded by genuinely distinct themes) is never dropped.
const themesRawCap = 1024

// Compile resolves a theme tag set once, memoized by the raw joined tags.
// Relatedness sits on the matching hot path and is called with the same
// theme slices for every event; recanonicalizing, sorting, and embedding
// full theme keys into cache keys on every call would dominate matching
// time. The raw memo is bounded by themesRawCap. Compile(nil) returns nil:
// the full space.
func (s *Space) Compile(theme []string) *CompiledTheme {
	if len(theme) == 0 {
		return nil
	}
	raw := strings.Join(theme, "\x01")
	s.themesMu.RLock()
	t, ok := s.themesRaw[raw]
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
	s.themesRaw[raw] = t
	s.themesMu.Unlock()
	return t
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
// multi-word) term: the sum of its tokens' TF/IDF vectors (Eq. 1/4).
func (s *Space) TermVector(term string) sparse.Vector {
	key := text.Canonical(term)
	if !s.opts.caching {
		return s.termVector(key)
	}
	// get-before-do keeps the warm path free of the do closure, which would
	// otherwise be heap-allocated on every call.
	if v, ok := s.termVecs.get(key); ok {
		return v
	}
	return s.termVecs.do(key, func() sparse.Vector { return s.termVector(key) })
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
// (Fig. 5 steps 2-3). An empty theme yields a nil basis, meaning the full
// space.
func (s *Space) ThemeBasis(theme []string) []int32 {
	return s.basisOf(s.Compile(theme))
}

func (s *Space) basisOf(t *CompiledTheme) []int32 {
	if t == nil {
		return nil
	}
	if b, ok := s.themeBases.get(t.Key); ok {
		return b
	}
	return s.themeBases.do(t.Key, func() []int32 { return s.themeBasis(t.Key) })
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
// themes — the matching hot path.
func (s *Space) ProjectCompiled(termKey string, t *CompiledTheme) sparse.Vector {
	if t == nil {
		return s.TermVector(termKey)
	}
	if !s.opts.caching {
		return s.project(termKey, t)
	}
	cacheKey := termKey + "\x00" + t.id
	if v, ok := s.projVecs.get(cacheKey); ok {
		return v
	}
	return s.projVecs.do(cacheKey, func() sparse.Vector { return s.project(termKey, t) })
}

func (s *Space) project(termKey string, t *CompiledTheme) sparse.Vector {
	s.projComputes.Add(1)
	basis := s.basisOf(t)
	if len(basis) == 0 {
		// The theme selects nothing: the space is filtered completely
		// (the paper's "rare terms" outlier case, §5.3.2).
		return sparse.Vector{}
	}
	var out sparse.Vector
	for _, tok := range text.Tokenize(termKey) {
		ps := s.ix.Postings(tok)
		if len(ps) == 0 {
			continue
		}
		// df of tok inside the basis: both the postings list and the basis
		// are sorted by document id, so a single linear merge walk counts
		// the intersection in O(P+B) — the binary-search-per-posting
		// alternative costs O(P·log B) and dominated Algorithm 1 on large
		// themes.
		dfB := 0
		for i, j := 0, 0; i < len(ps) && j < len(basis); {
			switch d := ps[i].Doc; {
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
		for i, j := 0, 0; i < len(ps) && j < len(basis); {
			switch d := ps[i].Doc; {
			case d == basis[j]:
				ids = append(ids, d)
				weights = append(weights, ps[i].TF*idfB)
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

// relatedness is the uncached measure body of RelatednessCompiled.
func (s *Space) relatedness(subTerm string, subTheme *CompiledTheme, eventTerm string, eventTheme *CompiledTheme) float64 {
	if s.opts.distance == Euclidean {
		// Distance is measured between L2-normalized projections: Eq. 5 on
		// unit vectors. Normalization makes the measure scale-invariant, so
		// high-frequency terms with long tf-idf vectors are not penalized
		// against short ones (a known artifact of raw Euclidean over VSMs).
		// The unit forms are cached per (term, theme) with their norms
		// precomputed, so the warm path is a single allocation-free merged
		// dot product via ‖â−b̂‖ = √(2−2·â·b̂) — no Scale copies, no
		// composite cache keys (see sparse.NormalizedEuclidean for the
		// float-identity contract).
		a := s.unitProjection(subTerm, subTheme)
		if subTerm == eventTerm && subTheme == eventTheme {
			// Identical term and theme project to the same vector: distance
			// is exactly 0, relatedness exactly 1. The dot-identity kernel
			// would lose this exactness (â·â = 1−ε in floats); compiled
			// themes are interned, so pointer equality decides.
			if a.IsZero() {
				return 0
			}
			return 1
		}
		b := s.unitProjection(eventTerm, eventTheme)
		if a.IsZero() || b.IsZero() {
			// A completely filtered projection offers no evidence of meaning
			// (the paper's "rare terms ... cause the space to be filtered
			// completely", §5.3.2); without this rule a zero vector would be
			// spuriously "close" to everything under Euclidean distance.
			return 0
		}
		return 1 / (sparse.NormalizedEuclidean(a, b) + 1)
	}
	a := s.ProjectCompiled(subTerm, subTheme)
	b := s.ProjectCompiled(eventTerm, eventTheme)
	if a.IsZero() || b.IsZero() {
		return 0
	}
	return sparse.Cosine(a, b)
}

// unitProjection returns the cached unit-normalized thematic projection of
// a canonical term — the Euclidean hot path's working representation. The
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
// of each canonical term — the event-side column of the Euclidean row
// kernel, resolved once per event instead of once per row. It returns
// false (leaving out untouched) when the space scores through the scalar
// path (cosine distance or an active score cache), where pre-resolved
// units are unused. len(out) must be at least len(terms).
func (s *Space) ResolveUnits(terms []string, t *CompiledTheme, out []sparse.Unit) bool {
	if s.opts.distance != Euclidean || s.scoreCache.Load() {
		return false
	}
	for j, term := range terms {
		out[j] = s.unitProjection(term, t)
	}
	return true
}

// ResolveUnit is the scalar form of ResolveUnits: the unit-normalized
// thematic projection of one canonical term, or ok=false when the space
// scores through the scalar path and pre-resolved units are unused.
// Prepared subscriptions resolve their predicate terms once through this at
// preparation time (see matcher.PrepareSubscription).
func (s *Space) ResolveUnit(term string, t *CompiledTheme) (sparse.Unit, bool) {
	if s.opts.distance != Euclidean || s.scoreCache.Load() {
		return sparse.Unit{}, false
	}
	return s.unitProjection(term, t), true
}

// Filtered reports whether the thematic projection of a canonical term
// under t has zero norm — the space is "filtered completely" for it
// (§5.3.2). Such a term relates 0 to every other term whatever the scoring
// configuration: both distance modes return 0 on a zero-norm side, and the
// score cache memoizes that same measure. Only canonical identity, which
// the matcher decides before asking the space, can relate it to anything.
func (s *Space) Filtered(term string, t *CompiledTheme) bool {
	return s.unitProjection(term, t).IsZero()
}

// RelatednessRowPreUnits fills out[j] with RelatednessCompiled(subTerm,
// subTheme, eventTerms[j], eventTheme) for every j, given the unit
// projections of both sides pre-resolved (a by ResolveUnit against subTheme,
// eventUnits by ResolveUnits against eventTheme, under the space's current
// scoring configuration) — the batch path's row kernel: no cache lookup on
// either side. a is scattered once into dense, every column's dot product is then
// a gather over the event unit's ids alone (sparse.DotDense, bit-identical
// to the merge behind RelatednessCompiled), and dense is all-zero again on
// return. dense must be all-zero on entry and Index().NumDocs() long —
// every projection id is below that, asserted where units are built. Term
// identity runs on interned ordinals (TermOrd), whose equality is
// canonical-string equality, so the row stays bit-identical to the scalar
// calls. out[j] is nonzero exactly when a and eventUnits[j] both are (see
// LiveColumns), so a caller that needs only the row's support can skip the
// call.
func (s *Space) RelatednessRowPreUnits(a *sparse.Unit, subOrd uint32, subTheme *CompiledTheme, eventOrds []uint32, eventUnits []sparse.Unit, eventTheme *CompiledTheme, dense, out []float64) {
	out, eventOrds = out[:len(eventUnits)], eventOrds[:len(eventUnits)]
	if a.IsZero() {
		clear(out)
		return
	}
	// The identity rule needs equal themes as well as equal terms. Term
	// ordinals start at 1, so under different themes compare against 0,
	// which no event term carries, and the loop tests ordinals only.
	same := subOrd
	if subTheme != eventTheme {
		same = 0
	}
	a.Scatter(dense)
	for j := range eventUnits {
		b := &eventUnits[j]
		switch {
		case eventOrds[j] == same:
			out[j] = 1
		case b.IsZero():
			out[j] = 0
		default:
			// sparse.NormalizedEuclidean on the gathered dot: the clamp
			// makes the distance of near-identical vectors exactly 0.
			if d := sparse.DotDense(dense, b); d >= 1 {
				out[j] = 1
			} else {
				out[j] = 1 / (math.Sqrt(2-2*d) + 1)
			}
		}
	}
	a.Unscatter(dense)
}

// LiveColumns returns the support RelatednessRowPreUnits can give a row
// against the event-side units: bit j&63 set when units[j] is nonzero (so
// beyond 64 columns the bits fold, and only a zero result is exact).
//
// The support rule: on the resolved-unit Euclidean path, relatedness is
// nonzero exactly when both unit projections are nonzero. A zero side
// scores 0 by definition (§5.3.2), and two nonzero unit vectors are at most
// 2 apart, so 1/(d+1) ≥ 1/3. A row's support is therefore the event's live
// columns when the subscription unit is nonzero and empty otherwise —
// decided without a dot product, which is what lets the batch scorer reject
// a candidate on support masks before filling any of its rows. The rule
// does not carry over to cosine distance (0 for disjoint supports), so rows
// there are filled before their masks are read.
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

// PrecomputeScores enables the score cache and fills it with all pairwise
// non-thematic relatedness values between subscription terms and event
// terms. It reproduces the "precomputed esa scores" configuration of the
// prior-work comparison (§5, experiment E8): after precomputation, matching
// those pairs never touches vectors.
func (s *Space) PrecomputeScores(subTerms, eventTerms []string) {
	s.scoreCache.Store(true)
	for _, a := range subTerms {
		for _, b := range eventTerms {
			s.NonThematicRelatedness(a, b)
		}
	}
}

// PrecomputeProjections warms the projection cache for every (term, theme)
// pair — the paper's "building an efficient indexing for thematic
// projection" future-work item (§7): a broker that knows its subscription
// and event themes ahead of time projects its vocabulary up front and pays
// only distance computation at match time.
func (s *Space) PrecomputeProjections(terms []string, themes ...[]string) {
	for _, theme := range themes {
		t := s.Compile(theme)
		for _, term := range terms {
			// Warming the unit form fills the raw projection cache on the
			// way through, so both representations are hot afterwards.
			s.unitProjection(text.Canonical(term), t)
		}
	}
}

// CacheStats reports cache entry counts (term vectors, theme bases,
// projections, scores) for observability and cold-start experiments.
func (s *Space) CacheStats() (termVecs, themeBases, projections, scores int) {
	return s.termVecs.len(), s.themeBases.len(), s.projVecs.len(), s.scores.len()
}

// Computes reports how many times the expensive cold paths actually ran:
// full-space term-vector constructions and thematic projections
// (Algorithm 1 executions). Under the single-flight contract each cached
// entry costs exactly one computation regardless of concurrency.
func (s *Space) Computes() (termVectors, projections uint64) {
	return s.termComputes.Load(), s.projComputes.Load()
}

// ResetCaches drops every cache. Cold-start experiments (§7 future work)
// use it to measure first-event latency. Concurrent computations finishing
// during a reset may repopulate entries they were already producing.
func (s *Space) ResetCaches() {
	s.termVecs.reset()
	s.themeBases.reset()
	s.projVecs.reset()
	s.unitFull.reset()
	s.scores.reset()
	s.themesMu.RLock()
	themes := make([]*CompiledTheme, 0, len(s.themesKey))
	for _, t := range s.themesKey {
		themes = append(themes, t)
	}
	s.themesMu.RUnlock()
	// Per-theme unit caches are reset outside themesMu: reset only takes
	// the per-shard locks, and compiled themes are never deleted.
	for _, t := range themes {
		t.units.reset()
	}
}

// themeID returns the interned id of a compiled theme ("" for the full
// space).
func themeID(t *CompiledTheme) string {
	if t == nil {
		return ""
	}
	return t.id
}
