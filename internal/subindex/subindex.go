// Package subindex implements the broker's subscription pruning index as
// an inverted index: sorted posting lists of dense uint32 subscription ids
// keyed by compiled-theme group and by interned exact terms — a term is
// either an exact (non-~) attribute or an exact (attribute, value) equality
// pair. A publish turns the event's tuples into a sorted term-id set once,
// then intersects that set against each group's anchor-term list with
// galloping (skip-pointer) search, so candidate enumeration is sublinear in
// the number of live subscriptions and allocation-free on the warm path.
//
// # Why pruning never loses a delivery
//
// The matcher's similarity matrix (§3.5) gives entry (i,j) the product
// attrSim·valueSim, where an exact (non-~) term contributes 1 on canonical
// equality and 0 otherwise, and event attributes are unique in canonical
// form (§3.3, enforced by Event.Validate). Three consequences make skipping
// safe — a skipped subscription provably scores 0, and the broker never
// delivers a zero score regardless of threshold:
//
//  1. A predicate with an exact attribute a has at most one candidate tuple
//     (the one whose canonical attribute equals a). If the event has no such
//     tuple, the predicate's similarity row is all zeros, so every mapping's
//     product — the score — is 0.
//  2. If that predicate also has an exact equality value v, the single
//     candidate tuple must additionally carry a canonically equal value,
//     else the row is again all zeros.
//  3. An injective predicates→tuples mapping needs at least as many tuples
//     as predicates; with fewer, no feasible mapping exists and the score
//     is 0.
//  4. A ~ term whose thematic projection under the subscription's theme is
//     zero relates 0 to every other term (§5.3.2: the space is filtered
//     completely), so it scores 1 on canonical equality and 0 otherwise —
//     exactly like an exact term. Rules 1 and 2 therefore apply to it too:
//     "exact" means "matches only itself", not "written without ~".
//
// In inverted-index terms: rules 1 and 2 say a subscription's requirement
// term set must be a subset of the event's term set, rule 3 caps predicate
// count by tuple count. Subscriptions with no exact term at all land in a
// conservative approximate-only posting that is always scored (rule 3
// aside), guaranteeing no recall loss: delivery sets are bit-identical to
// the unpruned scan.
//
// The index itself reads only the ~ flags as written; it knows nothing of
// projections. Rule 4 reaches it through the caller, which may file a view
// of the subscription with ~ cleared on the terms that can only match
// themselves (matcher.PreparedSubscription.PruningView) while scoring the
// original.
//
// The index assumes the matcher honors the §3.4 exact-term contract
// (canonical equality for non-~ terms). The thematic matcher and the
// non-thematic baseline do; matchers with looser semantics (for example
// concept-rewriting over exact terms) must disable pruning.
//
// # Layout
//
// Every live subscription owns a dense uint32 id allocated from a free
// list, indexing parallel columns (payload, predicate count, sorted
// requirement-term row). Within its theme group the subscription is posted
// under exactly one anchor term — the requirement term with the shortest
// posting list at insert time, a cheap rarest-first heuristic — so
// enumeration never yields duplicates and needs no deduplication set. An
// anchor hit is only a candidate's witness; the full requirement row is
// then verified by galloping containment against the event's term set.
// Remove compacts posting lists in place (no tombstones) and recycles the
// dense id. Interned term ids are never reclaimed; the interner is bounded
// by the vocabulary of exact terms ever subscribed, not by churn.
package subindex

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"thematicep/internal/event"
	"thematicep/internal/freelist"
	"thematicep/internal/text"
)

// group holds one compiled theme's posting lists.
type group[T any] struct {
	key         string
	approx      []uint32            // approximate-only posting: always candidates
	anchorTerms []uint32            // sorted term ids that have a posting here
	posts       map[uint32][]uint32 // anchor term id -> sorted dense sub ids
}

// Index is the inverted subscription index. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Index[T any] struct {
	mu sync.RWMutex

	// Term interner. A presence-only requirement (exact attribute) interns
	// the attribute; an exact equality requirement interns the
	// (attribute, value) pair as its own term. Nested maps keep warm-path
	// lookups free of key concatenation.
	attrIDs  map[string]uint32
	pairIDs  map[string]map[string]uint32
	nextTerm uint32

	themes map[string]*group[T]
	locs   map[string]uint32 // external id -> dense id

	// Columnar per-dense-id state, indexed by dense id.
	ext      []string
	payloads []T
	npreds   []int32    // rule 3: events with fewer tuples are infeasible
	reqs     [][]uint32 // sorted unique requirement term ids; empty = approx-only
	grp      []*group[T]
	anchor   []uint32 // posting the sub is filed under; valid iff len(reqs) > 0

	free []uint32 // recycled dense ids
}

// New builds an empty index.
func New[T any]() *Index[T] {
	return &Index[T]{
		attrIDs: make(map[string]uint32),
		pairIDs: make(map[string]map[string]uint32),
		themes:  make(map[string]*group[T]),
		locs:    make(map[string]uint32),
	}
}

// themeKey is the canonical theme-set key: the same normalization
// semantics.Space.Compile interns compiled themes under, so permuted or
// duplicated tag orderings of one theme share a group.
func themeKey(theme []string) string {
	return strings.Join(event.NormalizeTheme(theme), "\x1f")
}

// reqSpec is one exact requirement before interning.
type reqSpec struct {
	attr     string
	value    string
	hasValue bool
}

// requirements derives the exact requirements of a subscription. Only
// predicates with an exact attribute constrain the event: an approximate
// attribute may pair with any tuple. An exact equality value tightens the
// requirement to an (attribute, value) pair term; approximate values and
// ordering comparisons stay presence-only (conservative: the comparison is
// evaluated by the matcher, never assumed here).
func requirements(sub *event.Subscription) []reqSpec {
	var rs []reqSpec
	for _, p := range sub.Predicates {
		if p.ApproxAttr {
			continue
		}
		r := reqSpec{attr: text.Canonical(p.Attr)}
		if p.Op == event.OpEq && !p.ApproxValue {
			r.value = text.Canonical(p.Value)
			r.hasValue = true
		}
		rs = append(rs, r)
	}
	return rs
}

// intern returns the term id for a requirement, assigning the next id on
// first sight. Caller holds the write lock.
func (ix *Index[T]) intern(sp reqSpec) uint32 {
	if sp.hasValue {
		pm := ix.pairIDs[sp.attr]
		if pm == nil {
			pm = make(map[string]uint32)
			ix.pairIDs[sp.attr] = pm
		}
		t, ok := pm[sp.value]
		if !ok {
			t = ix.nextTerm
			ix.nextTerm++
			pm[sp.value] = t
		}
		return t
	}
	t, ok := ix.attrIDs[sp.attr]
	if !ok {
		t = ix.nextTerm
		ix.nextTerm++
		ix.attrIDs[sp.attr] = t
	}
	return t
}

// Add files a subscription under its theme group and anchor posting. Adding
// an id that is already present replaces the previous entry.
func (ix *Index[T]) Add(id string, sub *event.Subscription, payload T) {
	specs := requirements(sub) // canonicalization outside the lock
	key := themeKey(sub.Theme)

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.locs[id]; dup {
		ix.removeLocked(id)
	}

	var reqIDs []uint32
	for _, sp := range specs {
		reqIDs = insertSorted(reqIDs, ix.intern(sp))
	}

	var d uint32
	if n := len(ix.free); n > 0 {
		d = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.ext[d] = id
		ix.payloads[d] = payload
		ix.npreds[d] = int32(len(sub.Predicates))
		ix.reqs[d] = reqIDs
	} else {
		d = uint32(len(ix.ext))
		ix.ext = append(ix.ext, id)
		ix.payloads = append(ix.payloads, payload)
		ix.npreds = append(ix.npreds, int32(len(sub.Predicates)))
		ix.reqs = append(ix.reqs, reqIDs)
		ix.grp = append(ix.grp, nil)
		ix.anchor = append(ix.anchor, 0)
	}

	g := ix.themes[key]
	if g == nil {
		g = &group[T]{key: key, posts: make(map[uint32][]uint32)}
		ix.themes[key] = g
	}
	ix.grp[d] = g
	if len(reqIDs) == 0 {
		g.approx = insertSorted(g.approx, d)
	} else {
		// Anchor on the requirement term with the shortest posting list at
		// insert time: a rarest-first heuristic that keeps postings flat and
		// maximizes the chance the anchor term is absent from an event.
		best := reqIDs[0]
		for _, t := range reqIDs[1:] {
			if len(g.posts[t]) < len(g.posts[best]) {
				best = t
			}
		}
		if len(g.posts[best]) == 0 {
			g.anchorTerms = insertSorted(g.anchorTerms, best)
		}
		g.posts[best] = insertSorted(g.posts[best], d)
		ix.anchor[d] = best
	}
	ix.locs[id] = d
}

// Remove unfiles a subscription, compacting its posting list in place and
// recycling its dense id; unknown ids are a no-op.
func (ix *Index[T]) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *Index[T]) removeLocked(id string) {
	d, ok := ix.locs[id]
	if !ok {
		return
	}
	delete(ix.locs, id)
	g := ix.grp[d]
	if len(ix.reqs[d]) == 0 {
		g.approx = deleteSorted(g.approx, d)
	} else {
		a := ix.anchor[d]
		if p := deleteSorted(g.posts[a], d); len(p) == 0 {
			delete(g.posts, a)
			g.anchorTerms = deleteSorted(g.anchorTerms, a)
		} else {
			g.posts[a] = p
		}
	}
	if len(g.approx) == 0 && len(g.anchorTerms) == 0 {
		delete(ix.themes, g.key)
	}
	var zero T
	ix.ext[d] = ""
	ix.payloads[d] = zero
	ix.reqs[d] = nil
	ix.grp[d] = nil
	ix.free = append(ix.free, d)
}

// Len returns the number of indexed subscriptions.
func (ix *Index[T]) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.locs)
}

// Themes returns the number of distinct compiled-theme groups.
func (ix *Index[T]) Themes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.themes)
}

// Stats describes the index's occupancy for runtime introspection.
type Stats struct {
	Subscriptions int // indexed subscriptions
	Themes        int // distinct compiled-theme groups
	Buckets       int // anchor posting lists across all groups
	ApproxEntries int // approximate-only subscriptions (never prunable)
	MaxBucket     int // longest single posting list (anchor or approx)
	Terms         int // interned exact terms (attrs + attr/value pairs)
	FreeSlots     int // recycled dense ids awaiting reuse
	AvgBucket     float64
}

// Stats walks the index under its read lock and reports occupancy. A
// large MaxBucket relative to Subscriptions signals a skewed anchor term
// (many subscriptions posted under one exact term), which bounds how much
// the index can prune for events carrying that term.
func (ix *Index[T]) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{
		Subscriptions: len(ix.locs),
		Themes:        len(ix.themes),
		Terms:         int(ix.nextTerm),
		FreeSlots:     len(ix.free),
	}
	posted := 0
	for _, g := range ix.themes {
		st.Buckets += len(g.anchorTerms)
		st.ApproxEntries += len(g.approx)
		if len(g.approx) > st.MaxBucket {
			st.MaxBucket = len(g.approx)
		}
		for _, p := range g.posts {
			posted += len(p)
			if len(p) > st.MaxBucket {
				st.MaxBucket = len(p)
			}
		}
	}
	if st.Buckets > 0 {
		st.AvgBucket = float64(posted) / float64(st.Buckets)
	}
	return st
}

// enumBuf holds the per-publish scratch for candidate enumeration so the
// warm path allocates nothing in steady state.
type enumBuf struct {
	attrs  []string // canonical tuple attrs (Candidates only)
	values []string // canonical tuple values (Candidates only)
	terms  []uint32 // event's sorted term-id set
	hits   []uint32 // per-group anchor-term intersection
}

// enumFree holds the spare enumeration buffers. A buffer is held for one
// enumeration, so the list needs one per concurrent enumerator: it is sized
// to GOMAXPROCS as the package starts, and a borrower beyond it gets a
// fresh buffer.
var enumFree = make(freelist.List[enumBuf], runtime.GOMAXPROCS(0))

// Candidates yields the payload of every subscription the event could
// possibly match, and returns how many were yielded and how many the index
// pruned (skipped subscriptions provably score 0). The yield callback runs
// under the index's read lock and must not call back into the index.
func (ix *Index[T]) Candidates(e *event.Event, yield func(T)) (candidates, pruned int) {
	buf := enumFree.GetOrNew()
	for _, t := range e.Tuples {
		buf.attrs = append(buf.attrs, text.Canonical(t.Attr))
		buf.values = append(buf.values, text.Canonical(t.Value))
	}
	candidates, pruned = ix.candidates(buf, buf.attrs, buf.values, len(e.Tuples), yield)
	// Drop string references before freeing so the buffer never pins event
	// vocabulary.
	clear(buf.attrs)
	clear(buf.values)
	buf.attrs, buf.values = buf.attrs[:0], buf.values[:0]
	enumFree.Put(buf)
	return candidates, pruned
}

// CandidatesPrepared is Candidates over pre-canonicalized parallel tuple
// slices (for example a prepared event's terms), skipping the per-publish
// canonicalization entirely. attrs and values must be the canonical forms
// of the event's tuples, index-aligned.
func (ix *Index[T]) CandidatesPrepared(attrs, values []string, yield func(T)) (candidates, pruned int) {
	buf := enumFree.GetOrNew()
	candidates, pruned = ix.candidates(buf, attrs, values, len(attrs), yield)
	enumFree.Put(buf)
	return candidates, pruned
}

// candidates is the shared enumeration over an event with m tuples whose
// canonical attrs/values are index-aligned. It runs entirely under the
// read lock: (1) map the event's tuples to the sorted set of interned term
// ids they carry; (2) per theme group, yield the approximate-only posting
// (feasibility aside) and gallop-intersect the event's term set with the
// group's anchor terms; (3) for each anchor hit, walk its posting list and
// yield every subscription whose full requirement row is contained in the
// event's term set. Terms no subscription ever required are not interned
// and vanish in step 1, so enumeration cost tracks posting occupancy, not
// event width times subscription count.
func (ix *Index[T]) candidates(buf *enumBuf, attrs, values []string, m int, yield func(T)) (candidates, pruned int) {
	ix.mu.RLock()
	total := len(ix.locs)
	terms := buf.terms[:0]
	for i, a := range attrs {
		if id, ok := ix.attrIDs[a]; ok {
			terms = append(terms, id)
		}
		if pm := ix.pairIDs[a]; pm != nil {
			if id, ok := pm[values[i]]; ok {
				terms = append(terms, id)
			}
		}
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)
	m32 := int32(m)
	hits := buf.hits
	for _, g := range ix.themes {
		for _, d := range g.approx {
			if ix.npreds[d] <= m32 {
				yield(ix.payloads[d])
				candidates++
			}
		}
		if len(g.anchorTerms) == 0 {
			continue
		}
		hits = intersect2(hits[:0], terms, g.anchorTerms)
		for _, t := range hits {
			for _, d := range g.posts[t] {
				if ix.npreds[d] <= m32 && containsAll(ix.reqs[d], terms) {
					yield(ix.payloads[d])
					candidates++
				}
			}
		}
	}
	ix.mu.RUnlock()
	buf.terms = terms[:0]
	buf.hits = hits[:0]
	return candidates, total - candidates
}
