// Package subindex implements the broker's subscription pruning index as
// one inverted index: sorted posting lists of dense uint32 subscription ids
// keyed by interned exact term — a term is either an exact (non-~)
// attribute or an exact (attribute, value) equality pair. A publish turns
// the event's tuples into a sorted term-id set once and walks the posting
// of each of those terms, so candidate enumeration is sublinear in the
// number of live subscriptions and allocation-free on the warm path. A
// subscription's theme changes how its ~ terms relate (§5.3.2) but never
// rules it out, so the index does not look at themes.
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
// list, indexing parallel columns (payload, predicate count, filing state,
// and the place of its requirement-term row in one shared pool). The
// subscription is posted under exactly one anchor term — the requirement
// term with the shortest posting list at insert time, a cheap rarest-first
// heuristic — so enumeration never yields duplicates and needs no
// deduplication set. The row holds the anchor first and the other
// requirement terms sorted; an anchor hit is only a candidate's witness,
// and the rest of the row is then verified by galloping containment
// against the event's term set. Remove compacts posting lists in place (no
// tombstones) and recycles the dense id; its row stays in the pool until
// the pool compacts. Interned term ids are never reclaimed; the interner is
// bounded by the vocabulary of exact terms ever subscribed, not by churn.
//
// The index is also its owner's registry: its map from external id to
// dense id is the one map from subscription id to payload (Get, Remove,
// AppendAll, Clear), whether or not the owner prunes with it. An owner
// that does not prune adds its subscriptions with a nil view, which files
// a payload and no requirements.
package subindex

import (
	"runtime"
	"slices"
	"sync"

	"thematicep/internal/event"
	"thematicep/internal/freelist"
	"thematicep/internal/text"
)

// Index is the inverted subscription index. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Index[T any] struct {
	mu sync.RWMutex

	// Term interner. A presence-only requirement (exact attribute) interns
	// the attribute; an exact equality requirement interns the
	// (attribute, value) pair as its own term. Nested maps keep warm-path
	// lookups free of key concatenation. Term ids are dense: the next one
	// is len(posts).
	attrIDs map[string]uint32
	pairIDs map[string]map[string]uint32

	posts  [][]uint32        // anchor term id -> sorted dense sub ids
	approx []uint32          // approximate-only posting: always candidates
	locs   map[string]uint32 // external id -> dense id

	// Per-dense-id state, indexed by dense id.
	payloads []T
	entries  []entry

	// reqPool holds every subscription's requirement row back to back (see
	// reqs), so a row costs its terms and no slice of its own. Remove leaves
	// the row in place as reqGarbage terms, which compaction reclaims once
	// they are half the pool.
	reqPool    []uint32
	reqGarbage int

	free []uint32 // recycled dense ids
}

// entry is what enumeration reads of one subscription besides its payload,
// in one place, so a posting visit touches one entry and the row it names.
type entry struct {
	npreds int32  // rule 3: events with fewer tuples are infeasible
	reqOff uint32 // the requirement row's place in reqPool
	reqLen uint32 // requirement terms; 0 = approx-only
	state  slot
}

// slot is what a dense id holds.
type slot uint8

const (
	slotFree    slot = iota // recycled, awaiting reuse
	slotFiled               // a subscription, in a posting
	slotUnfiled             // a payload registered alone (Add with a nil subscription)
)

// reqs returns dense id d's requirement row: its unique requirement term
// ids, the anchor (the posting it is filed under) first and the rest
// sorted.
func (ix *Index[T]) reqs(d uint32) []uint32 {
	e := &ix.entries[d]
	return ix.reqPool[e.reqOff : e.reqOff+e.reqLen]
}

// compactReqs rewrites the requirement pool with the live rows alone.
// Caller holds the write lock.
func (ix *Index[T]) compactReqs() {
	pool := make([]uint32, 0, len(ix.reqPool)-ix.reqGarbage)
	for d := range ix.entries {
		if e := &ix.entries[d]; e.state != slotFree {
			row := ix.reqs(uint32(d))
			e.reqOff = uint32(len(pool))
			pool = append(pool, row...)
		}
	}
	ix.reqPool, ix.reqGarbage = pool, 0
}

// New builds an empty index.
func New[T any]() *Index[T] {
	return &Index[T]{
		attrIDs: make(map[string]uint32),
		pairIDs: make(map[string]map[string]uint32),
		locs:    make(map[string]uint32),
	}
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

// intern returns the term id for a requirement, assigning the next id, and
// an empty posting, on first sight. Caller holds the write lock.
func (ix *Index[T]) intern(sp reqSpec) uint32 {
	ids, key := ix.attrIDs, sp.attr
	if sp.hasValue {
		ids, key = ix.pairIDs[sp.attr], sp.value
		if ids == nil {
			ids = make(map[string]uint32)
			ix.pairIDs[sp.attr] = ids
		}
	}
	t, ok := ids[key]
	if !ok {
		t = uint32(len(ix.posts))
		ix.posts = append(ix.posts, nil)
		ids[key] = t
	}
	return t
}

// Add files a subscription under its anchor posting. Adding an id that is
// already present replaces the previous entry. A nil sub registers payload
// under id without filing it: Get, Remove, AppendAll and Clear see it,
// candidate enumeration never yields it, and it costs no interned term,
// posting or requirement row.
func (ix *Index[T]) Add(id string, sub *event.Subscription, payload T) {
	var specs []reqSpec
	if sub != nil {
		specs = requirements(sub) // canonicalization outside the lock
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.locs[id]; dup {
		ix.removeLocked(id)
	}

	var d uint32
	if n := len(ix.free); n > 0 {
		d = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		d = uint32(len(ix.payloads))
		ix.payloads = append(ix.payloads, payload)
		ix.entries = append(ix.entries, entry{})
	}
	ix.payloads[d] = payload
	ix.locs[id] = d
	e := &ix.entries[d]
	if sub == nil {
		*e = entry{state: slotUnfiled}
		return
	}

	// The row is built in place at the pool's end.
	off := len(ix.reqPool)
	for _, sp := range specs {
		ix.reqPool = append(ix.reqPool, ix.intern(sp))
	}
	slices.Sort(ix.reqPool[off:])
	reqIDs := slices.Compact(ix.reqPool[off:])
	ix.reqPool = ix.reqPool[:off+len(reqIDs)]
	*e = entry{npreds: int32(len(sub.Predicates)), reqOff: uint32(off), reqLen: uint32(len(reqIDs)), state: slotFiled}
	if len(reqIDs) == 0 {
		ix.approx = insertSorted(ix.approx, d)
		return
	}

	// Anchor on the requirement term with the shortest posting list at
	// insert time: a rarest-first heuristic that keeps postings flat and
	// maximizes the chance the anchor term is absent from an event.
	k := 0
	for i, t := range reqIDs {
		if len(ix.posts[t]) < len(ix.posts[reqIDs[k]]) {
			k = i
		}
	}
	best := reqIDs[k]
	copy(reqIDs[1:k+1], reqIDs[:k])
	reqIDs[0] = best
	ix.posts[best] = insertSorted(ix.posts[best], d)
}

// Remove unfiles a subscription, compacting its posting list in place and
// recycling its dense id, and returns its payload; unknown ids are a no-op
// that reports false.
func (ix *Index[T]) Remove(id string) (T, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.removeLocked(id)
}

func (ix *Index[T]) removeLocked(id string) (payload T, ok bool) {
	d, ok := ix.locs[id]
	if !ok {
		return payload, false
	}
	payload = ix.payloads[d]
	delete(ix.locs, id)
	e := &ix.entries[d]
	if e.state == slotFiled {
		if e.reqLen == 0 {
			ix.approx = deleteSorted(ix.approx, d)
		} else {
			a := ix.reqPool[e.reqOff]
			ix.posts[a] = deleteSorted(ix.posts[a], d)
		}
	}
	var zero T
	ix.payloads[d] = zero
	e.state = slotFree
	ix.free = append(ix.free, d)
	if ix.reqGarbage += int(e.reqLen); 2*ix.reqGarbage > len(ix.reqPool) {
		ix.compactReqs()
	}
	return payload, true
}

// Get returns the payload filed under id.
func (ix *Index[T]) Get(id string) (T, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.locs[id]
	if !ok {
		var zero T
		return zero, false
	}
	return ix.payloads[d], true
}

// AppendAll appends the payload of every indexed subscription to dst, in
// dense-id order, and returns it.
func (ix *Index[T]) AppendAll(dst []T) []T {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for d := range ix.entries {
		if ix.entries[d].state != slotFree {
			dst = append(dst, ix.payloads[d])
		}
	}
	return dst
}

// Clear removes every subscription and returns their payloads in dense-id
// order. Interned terms stay, as they do on Remove.
func (ix *Index[T]) Clear() []T {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]T, 0, len(ix.locs))
	for d := range ix.entries {
		if ix.entries[d].state != slotFree {
			out = append(out, ix.payloads[d])
		}
	}
	clear(ix.posts)
	ix.approx = nil
	ix.locs = make(map[string]uint32)
	ix.payloads, ix.entries, ix.free = nil, nil, nil
	ix.reqPool, ix.reqGarbage = nil, 0
	return out
}

// Len returns the number of indexed subscriptions.
func (ix *Index[T]) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.locs)
}

// Stats describes the index's occupancy for runtime introspection.
type Stats struct {
	Subscriptions int // indexed subscriptions
	Buckets       int // non-empty anchor posting lists
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
		ApproxEntries: len(ix.approx),
		MaxBucket:     len(ix.approx),
		Terms:         len(ix.posts),
		FreeSlots:     len(ix.free),
	}
	posted := 0
	for _, p := range ix.posts {
		if len(p) > 0 {
			st.Buckets++
			posted += len(p)
			st.MaxBucket = max(st.MaxBucket, len(p))
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
// ids they carry; (2) yield the approximate-only posting (feasibility
// aside); (3) for each of the event's terms, walk its posting list and
// yield every subscription whose requirement row is contained in the
// event's term set (the anchor, first in the row, is the term itself). Terms
// no subscription ever required are not interned and vanish in step 1, so
// enumeration cost tracks posting occupancy, not event width times
// subscription count.
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
	for _, d := range ix.approx {
		if ix.entries[d].npreds <= m32 {
			yield(ix.payloads[d])
			candidates++
		}
	}
	for _, t := range terms {
		for _, d := range ix.posts[t] {
			if e := &ix.entries[d]; e.npreds <= m32 && containsAll(ix.reqPool[e.reqOff+1:e.reqOff+e.reqLen], terms) {
				yield(ix.payloads[d])
				candidates++
			}
		}
	}
	ix.mu.RUnlock()
	buf.terms = terms[:0]
	return candidates, total - candidates
}
