package matcher

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"

	"thematicep/internal/assign"
	"thematicep/internal/event"
	"thematicep/internal/freelist"
	"thematicep/internal/semantics"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// PreparedSubscription caches a subscription's canonical terms and compiled
// theme. Subscriptions are long-lived in a broker; preparing them once
// removes canonicalization from the per-event hot path.
//
// Field order matters: the batch scorer visits millions of these as
// scattered heap objects per publish batch, and everything its warm path
// reads — the predicate count, the all-equality flag, and the first four
// predicate descriptors — is packed at the front so one cache line serves
// the whole candidate when every row is memoized.
type PreparedSubscription struct {
	// np is the predicate count (== len(attrs)).
	np int32
	// allEq means every predicate is an equality op: those similarity rows
	// write all of their cells, so the batch scorer can skip zeroing the
	// matrix for this subscription.
	allEq bool
	// relaxed counts the relaxed factors of the similarity cells: relaxed
	// attributes, and relaxed values of equality ops (saturating). The
	// batch scorer skips the score cap of a candidate with too few to fall
	// below the threshold (see BatchArena.SetThreshold).
	relaxed uint8
	// sig is the interned id of the predicate descriptor sequence for
	// all-equality subscriptions (0 otherwise): equal sigs guarantee
	// bit-identical scores against any event, so the batch scorer memoizes
	// one score per signature per event (see Matcher.sigID).
	sig uint32
	// pinned marks the relaxed terms that can only match themselves (bit
	// 2i: predicate i's attribute, bit 2i+1: its equality value); see
	// PruningView. It fills the padding before preds, so only the first
	// pinnable predicates can be pinned; a term left relaxed is always sound.
	pinned uint32

	// preds holds the first four predicates' hot scoring fields inline
	// (spill holds all of them when np > 4 — beyond the exhaustive-search
	// mapping sizes, scoring goes through the allocating Hungarian solver
	// anyway). The batch scorer reads only these per predicate — chasing
	// ps.sub.Predicates per (candidate, predicate) was a measured top cost
	// of the batched pipeline; the raw comparison value for non-equality
	// ops is the one exception and takes the cold branch.
	preds [4]predDesc
	spill []predDesc

	sub    *event.Subscription
	theme  *semantics.CompiledTheme
	attrs  []string // canonical predicate attributes
	values []string // canonical predicate values

	// attrOrds/valueOrds are the terms' interned ordinals
	// (semantics.TermOrd): ordinal equality is canonical-string equality,
	// so the batch scorer's identity rules compare integers, not strings.
	attrOrds  []uint32
	valueOrds []uint32

	// attrUnits/valueUnits are the ~-relaxed predicate terms' unit
	// projections under the subscription's theme, resolved once at
	// preparation time so a row-memo miss goes straight to the dot products
	// — the subscription-side twin of PreparedEvent's unit columns. Exact
	// terms' entries stay zero (their rows never read a unit) and a slice
	// with no relaxed term is nil. Unit values are deterministic for a
	// (term, theme) pair, so they stay valid across space cache resets.
	attrUnits  []sparse.Unit
	valueUnits []sparse.Unit
}

// pred returns predicate i's descriptor (small enough to inline into the
// scoring loops).
func (p *PreparedSubscription) pred(i int) predDesc {
	if p.np <= 4 {
		return p.preds[i]
	}
	return p.spill[i]
}

// predDesc is one predicate's inlined scoring descriptor: the row ids the
// batch scorer's dense row memo is indexed by (see Matcher.rowID), plus the
// operator and approx flags.
type predDesc struct {
	attrRow  uint32
	valueRow uint32
	op       event.Op
	approxA  bool
	approxV  bool
}

// Subscription returns the underlying subscription.
func (p *PreparedSubscription) Subscription() *event.Subscription { return p.sub }

// zeroUnit reports whether relaxed term i's unit projection (the attribute
// or the equality value, by kind) is zero. For the first pinnable
// predicates that is the pinned bit, so the check reads no unit memory.
func (p *PreparedSubscription) zeroUnit(kind rowKind, i int) bool {
	if i < pinnable {
		return p.pinned>>(2*i+int(kind))&1 != 0
	}
	if kind == rowValue {
		return p.valueUnits[i].IsZero()
	}
	return p.attrUnits[i].IsZero()
}

// PruningView returns the subscription as the pruning index should see it:
// ~ cleared on every relaxed attribute, and every relaxed equality value,
// whose projection under the subscription's theme is zero. Such a term
// scores 1 against its canonical twin and 0 against anything else, exactly
// like an exact term, so the index may require it. It returns the
// underlying subscription itself when no term qualifies, and a fresh copy
// otherwise: the underlying subscription is never modified, and it alone
// is what the matcher scores.
func (p *PreparedSubscription) PruningView() *event.Subscription {
	if p.pinned == 0 {
		return p.sub
	}
	view := *p.sub
	view.Predicates = slices.Clone(p.sub.Predicates)
	for i := range view.Predicates[:min(len(view.Predicates), pinnable)] {
		if p.pinned>>(2*i)&1 != 0 {
			view.Predicates[i].ApproxAttr = false
		}
		if p.pinned>>(2*i+1)&1 != 0 {
			view.Predicates[i].ApproxValue = false
		}
	}
	return &view
}

// PreparedEvent caches an event's canonical terms and compiled theme. A
// broker matches one event against many subscriptions; preparing it once
// amortizes the canonicalization.
type PreparedEvent struct {
	ev     *event.Event
	theme  *semantics.CompiledTheme
	attrs  []string
	values []string

	// attrOrds/valueOrds are the tuples' interned term ordinals
	// (semantics.TermOrd), the integer twins of attrs/values for the batch
	// scorer's identity rules.
	attrOrds  []uint32
	valueOrds []uint32

	// attrUnits/valueUnits are the tuples' unit projections under the
	// event's own theme, resolved once per event so the row kernel skips the
	// per-pair projection-cache lookup.
	attrUnits  []sparse.Unit
	valueUnits []sparse.Unit

	// attrLive/valueLive are the columns whose unit is nonzero
	// (semantics.LiveColumns), set with the units: a bound on the support
	// of every relaxed row against this event (exact under Euclidean
	// distance), so the batch scorer decides a row's mask before, and often
	// instead of, filling it.
	attrLive  uint64
	valueLive uint64
}

// Event returns the underlying event.
func (p *PreparedEvent) Event() *event.Event { return p.ev }

// CanonicalTuples returns the canonical attribute and value terms of the
// event's tuples, index-aligned. Callers must not mutate the slices. The
// broker's pruning index uses them to skip per-publish recanonicalization.
func (p *PreparedEvent) CanonicalTuples() (attrs, values []string) { return p.attrs, p.values }

// PrepareSubscription canonicalizes a subscription against this matcher's
// space. The preparation is only valid for matchers sharing the space.
func (m *Matcher) PrepareSubscription(s *event.Subscription) *PreparedSubscription {
	p := &PreparedSubscription{
		np:        int32(len(s.Predicates)),
		sub:       s,
		attrs:     make([]string, len(s.Predicates)),
		values:    make([]string, len(s.Predicates)),
		attrOrds:  make([]uint32, len(s.Predicates)),
		valueOrds: make([]uint32, len(s.Predicates)),
	}
	if len(s.Predicates) > 4 {
		p.spill = make([]predDesc, len(s.Predicates))
	}
	if m.opts.thematic {
		p.theme = m.space.Compile(s.Theme)
	}
	themeOrd := p.theme.Ord()
	p.allEq = true
	relaxed := 0
	for i, pred := range s.Predicates {
		if pred.Op != event.OpEq {
			p.allEq = false
		}
		if pred.ApproxAttr {
			relaxed++
		}
		if pred.ApproxValue && pred.Op == event.OpEq {
			relaxed++
		}
		p.attrs[i] = text.Canonical(pred.Attr)
		p.values[i] = text.Canonical(pred.Value)
		p.attrOrds[i] = m.space.TermOrd(p.attrs[i])
		p.valueOrds[i] = m.space.TermOrd(p.values[i])
		d := predDesc{
			attrRow:  m.rowID(rowAttr, pred.ApproxAttr, themeOrd, p.attrOrds[i]),
			valueRow: m.rowID(rowValue, pred.ApproxValue, themeOrd, p.valueOrds[i]),
			op:       pred.Op,
			approxA:  pred.ApproxAttr,
			approxV:  pred.ApproxValue,
		}
		if p.spill != nil {
			p.spill[i] = d
		} else {
			p.preds[i] = d
		}
	}
	p.relaxed = uint8(min(relaxed, math.MaxUint8))
	if p.allEq && p.np > 0 {
		// All-equality scores are a pure function of the descriptor
		// sequence and the event, so identical sequences
		// share one interned signature (and one score per event).
		key := make([]byte, 0, 8*p.np)
		for i := 0; i < int(p.np); i++ {
			d := p.pred(i)
			key = binary.LittleEndian.AppendUint32(key, d.attrRow)
			key = binary.LittleEndian.AppendUint32(key, d.valueRow)
		}
		p.sig = m.sigID(key)
	}
	p.resolveUnits(m.space)
	p.pin(m.space)
	return p
}

// pinnable is how many predicates PreparedSubscription.pinned covers, at
// two bits each.
const pinnable = 16

// pin decides, once, which relaxed terms can only match themselves: those
// the space filters completely under the subscription's theme (nil in
// non-thematic mode, the full space). Comparison values are never scored
// by similarity, so only equality values qualify.
func (p *PreparedSubscription) pin(space *semantics.Space) {
	for i, pred := range p.sub.Predicates[:min(len(p.sub.Predicates), pinnable)] {
		if pred.ApproxAttr && space.Filtered(p.attrs[i], p.theme) {
			p.pinned |= 1 << (2 * i)
		}
		if pred.ApproxValue && pred.Op == event.OpEq && space.Filtered(p.values[i], p.theme) {
			p.pinned |= 2 << (2 * i)
		}
	}
}

// resolveUnits resolves the unit projections of the ~-relaxed terms — the
// only ones a similarity row ever dots; exact rows compare ordinals. A
// subscription with no relaxed attribute (or value) keeps no slice for it.
func (p *PreparedSubscription) resolveUnits(space *semantics.Space) {
	resolve := func(units *[]sparse.Unit, i int, term string) {
		if *units == nil {
			*units = make([]sparse.Unit, p.np)
		}
		(*units)[i], _ = space.ResolveUnit(term, p.theme)
	}
	for i := 0; i < int(p.np); i++ {
		d := p.pred(i)
		if d.approxA {
			resolve(&p.attrUnits, i, p.attrs[i])
		}
		if d.approxV {
			resolve(&p.valueUnits, i, p.values[i])
		}
	}
}

// PrepareEvent canonicalizes an event against this matcher's space.
func (m *Matcher) PrepareEvent(e *event.Event) *PreparedEvent {
	p := new(PreparedEvent)
	m.fillEvent(p, e)
	return p
}

// fillEvent prepares e into p, reusing p's slices when they are long
// enough; both prepare paths end here. Terms and the theme resolve through
// the space's raw memos; misses and hits count the term lookups.
func (m *Matcher) fillEvent(p *PreparedEvent, e *event.Event) (misses, hits uint64) {
	n := len(e.Tuples)
	if cap(p.attrs) < n {
		p.attrs = make([]string, n)
		p.values = make([]string, n)
		p.attrOrds = make([]uint32, n)
		p.valueOrds = make([]uint32, n)
		p.attrUnits = make([]sparse.Unit, n)
		p.valueUnits = make([]sparse.Unit, n)
	}
	p.attrs, p.values = p.attrs[:n], p.values[:n]
	p.attrOrds, p.valueOrds = p.attrOrds[:n], p.valueOrds[:n]
	p.attrUnits, p.valueUnits = p.attrUnits[:n], p.valueUnits[:n]
	p.ev = e
	p.theme = nil
	if m.opts.thematic {
		p.theme = m.space.Compile(e.Theme)
	}
	for j, t := range e.Tuples {
		p.attrs[j], p.values[j] = t.Attr, t.Value
	}
	hits = uint64(m.space.CanonicalTerms(p.attrs, p.attrOrds) + m.space.CanonicalTerms(p.values, p.valueOrds))
	p.resolveUnits(m.space)
	return 2*uint64(n) - hits, hits
}

// resolveUnits resolves the tuples' unit projections under the event's
// theme, and their live columns, into the event's unit slices, which must
// already be as long as its terms.
func (p *PreparedEvent) resolveUnits(space *semantics.Space) {
	space.ResolveUnits(p.attrs, p.theme, p.attrUnits)
	space.ResolveUnits(p.values, p.theme, p.valueUnits)
	p.attrLive = semantics.LiveColumns(p.attrUnits)
	p.valueLive = semantics.LiveColumns(p.valueUnits)
}

// simBuf is a reusable similarity-matrix buffer: one contiguous cell slice
// plus its row headers for the similarity matrix, and a second pair for the
// log-weight matrix the Hungarian solver consumes. MatchPrepared/
// ScorePrepared borrow one per call from simFree, so the per-(event,
// subscription) hot loop allocates nothing for either matrix.
type simBuf struct {
	rows  [][]float64
	cells []float64
	// lastN/lastM memoize the shape the row headers were last built for:
	// batch scoring hands the same buffer thousands of same-shaped
	// candidates in a row, so header rebuilds are skipped between them.
	lastN, lastM int

	logRows  [][]float64
	logCells []float64
}

// simFree holds the spare similarity buffers. A buffer is held only for the
// length of one score, so the list needs one per concurrent scorer: the
// benchmark oracle runs GOMAXPROCS workers, the eval grid its Parallelism
// workers, and a broker one replay per subscribing connection. The list is
// sized to GOMAXPROCS as the package starts; a borrower beyond it gets a
// fresh buffer.
var simFree = make(freelist.List[simBuf], runtime.GOMAXPROCS(0))

// shape returns an n×m matrix backed by the buffer WITHOUT zeroing the
// cells — for callers that overwrite every cell (all-equality predicate
// rows). Headers are rebuilt only when the shape changes or the backing
// storage is regrown.
func (b *simBuf) shape(n, m int) [][]float64 {
	if cap(b.cells) < n*m {
		b.cells = make([]float64, n*m)
		b.lastN = 0 // headers point into the old storage
	}
	b.cells = b.cells[:n*m]
	if b.lastN != n || b.lastM != m {
		if cap(b.rows) < n {
			b.rows = make([][]float64, n)
		}
		b.rows = b.rows[:n]
		for i := range b.rows {
			b.rows[i] = b.cells[i*m : (i+1)*m]
		}
		b.lastN, b.lastM = n, m
	}
	return b.rows
}

// matrix returns an n×m zeroed matrix backed by the buffer, growing the
// backing storage only when the shape outgrows it.
func (b *simBuf) matrix(n, m int) [][]float64 {
	rows := b.shape(n, m)
	clear(b.cells)
	return rows
}

// logMatrix returns the log-weight form of sim (see logWeights) backed by
// the buffer's second storage pair, so the Hungarian path borrows both of
// its matrices from the same buffer. assign.Best copies the weights into
// its own working storage, so returning the buffer to simFree after the
// solve is safe.
func (b *simBuf) logMatrix(sim [][]float64) [][]float64 {
	n, m := len(sim), len(sim[0])
	b.logRows, b.logCells = growMatrix(b.logRows, b.logCells, n, m)
	fillLogWeights(b.logRows, sim)
	return b.logRows
}

// growMatrix reshapes a rows/cells storage pair to an n×m zeroed matrix,
// growing the backing storage only when the shape outgrows it.
func growMatrix(rows [][]float64, cells []float64, n, m int) ([][]float64, []float64) {
	if cap(cells) < n*m {
		cells = make([]float64, n*m)
	}
	cells = cells[:n*m]
	clear(cells)
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = cells[i*m : (i+1)*m]
	}
	return rows, cells
}

// similarityMatrixPrepared allocates and fills a fresh combined similarity
// matrix between prepared subscription and event.
func (m *Matcher) similarityMatrixPrepared(ps *PreparedSubscription, pe *PreparedEvent) [][]float64 {
	n, mm := len(ps.attrs), len(pe.attrs)
	sim := make([][]float64, n)
	cells := make([]float64, n*mm)
	for i := range sim {
		sim[i] = cells[i*mm : (i+1)*mm]
	}
	m.fillSimilarity(sim, ps, pe)
	return sim
}

// fillSimilarity writes the combined similarities into a pre-zeroed n×m
// matrix.
func (m *Matcher) fillSimilarity(sim [][]float64, ps *PreparedSubscription, pe *PreparedEvent) {
	mm := len(pe.attrs)
	for i := range sim {
		pred := ps.sub.Predicates[i]
		for j := 0; j < mm; j++ {
			attrSim := m.termSimilarity(ps.attrs[i], pred.ApproxAttr, pe.attrs[j], ps.theme, pe.theme)
			if attrSim == 0 {
				continue
			}
			var valueSim float64
			if pred.Op == event.OpEq {
				valueSim = m.termSimilarity(ps.values[i], pred.ApproxValue, pe.values[j], ps.theme, pe.theme)
			} else if event.EvalOp(pred.Op, pe.ev.Tuples[j].Value, pred.Value) {
				// Comparison predicates (an extension beyond §3.4) are
				// exact: they contribute 1 when satisfied and 0 otherwise.
				// Raw values, not canonical ones, preserve decimals.
				valueSim = 1
			}
			sim[i][j] = attrSim * valueSim
		}
	}
}

// MatchPrepared is Match over prepared inputs — the broker's hot path. The
// similarity matrix is borrowed from simFree and returned before
// MatchPrepared returns; the produced Mapping copies every value it needs,
// so nothing borrowed escapes.
func (m *Matcher) MatchPrepared(ps *PreparedSubscription, pe *PreparedEvent) (Mapping, bool) {
	buf := simFree.GetOrNew()
	sim := buf.matrix(len(ps.attrs), len(pe.attrs))
	m.fillSimilarity(sim, ps, pe)
	mp, ok := m.bestMapping(buf, sim)
	simFree.Put(buf)
	return mp, ok
}

// ScorePrepared is Score over prepared inputs — the broker's innermost hot
// loop. Unlike MatchPrepared it never materializes the Mapping (no Pairs
// slice), so with warm semantic caches and the common ≤4-predicate
// subscriptions it performs zero allocations per call (asserted in
// bench_test.go); the Hungarian path beyond allocates only inside the
// solver.
func (m *Matcher) ScorePrepared(ps *PreparedSubscription, pe *PreparedEvent) float64 {
	buf := simFree.GetOrNew()
	sim := buf.matrix(len(ps.attrs), len(pe.attrs))
	m.fillSimilarity(sim, ps, pe)
	score := m.bestScore(buf, sim)
	simFree.Put(buf)
	return score
}

// bestScore computes only the top-1 mapping score of a similarity matrix.
func (m *Matcher) bestScore(buf *simBuf, sim [][]float64) float64 {
	n := len(sim)
	if n == 0 || n > len(sim[0]) {
		return 0
	}
	if n <= 4 {
		_, score := bestSmall(sim)
		return score
	}
	sol, feasible := assign.Best(buf.logMatrix(sim))
	if !feasible {
		return 0
	}
	score := 1.0
	for i, j := range sol.Cols {
		score *= sim[i][j]
	}
	return score
}

// bestMapping finds the top-1 mapping for a similarity matrix, using an
// exhaustive product maximization for the common small predicate counts and
// the Hungarian solver beyond.
func (m *Matcher) bestMapping(buf *simBuf, sim [][]float64) (Mapping, bool) {
	n := len(sim)
	if n == 0 {
		return Mapping{}, false
	}
	mm := len(sim[0])
	if n > mm {
		return Mapping{}, false
	}
	if n <= 4 {
		cols, score := bestSmall(sim)
		if score <= 0 {
			return Mapping{}, false
		}
		return m.mappingFromCols(sim, cols[:n]), true
	}
	return m.bestMappingHungarian(buf, sim)
}

// bestSmall exhaustively maximizes the similarity product for n <= 4
// predicates; returns score 0 when no positive-product assignment exists.
// The column choice comes back in a fixed-size array (use cols[:n]) so the
// score-only hot path allocates nothing. Similarities lie in [0, 1]
// (termSimilarity's range), so a partial product at or below the best full
// product can never be extended past it — the n = 4 sweep prunes on that
// monotonicity and in practice visits a small fraction of the m⁴ space.
func bestSmall(sim [][]float64) ([4]int, float64) {
	n, m := len(sim), len(sim[0])
	best := 0.0
	var bestCols [4]int
	switch n {
	case 1:
		bj := -1
		for j := 0; j < m; j++ {
			if sim[0][j] > best {
				best = sim[0][j]
				bj = j
			}
		}
		bestCols[0] = bj
	case 2:
		for j := 0; j < m; j++ {
			if sim[0][j] == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				if k == j {
					continue
				}
				if p := sim[0][j] * sim[1][k]; p > best {
					best = p
					bestCols = [4]int{j, k, 0, 0}
				}
			}
		}
	case 3:
		for j := 0; j < m; j++ {
			if sim[0][j] == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				if k == j || sim[1][k] == 0 {
					continue
				}
				pjk := sim[0][j] * sim[1][k]
				for l := 0; l < m; l++ {
					if l == j || l == k {
						continue
					}
					if p := pjk * sim[2][l]; p > best {
						best = p
						bestCols = [4]int{j, k, l, 0}
					}
				}
			}
		}
	case 4:
		for j := 0; j < m; j++ {
			s0 := sim[0][j]
			if s0 <= best {
				continue
			}
			for k := 0; k < m; k++ {
				if k == j {
					continue
				}
				p1 := s0 * sim[1][k]
				if p1 <= best {
					continue
				}
				for l := 0; l < m; l++ {
					if l == j || l == k {
						continue
					}
					p2 := p1 * sim[2][l]
					if p2 <= best {
						continue
					}
					for q := 0; q < m; q++ {
						if q == j || q == k || q == l {
							continue
						}
						if p := p2 * sim[3][q]; p > best {
							best = p
							bestCols = [4]int{j, k, l, q}
						}
					}
				}
			}
		}
	}
	return bestCols, best
}

// mappingFromCols assembles a Mapping from an explicit column choice.
func (m *Matcher) mappingFromCols(sim [][]float64, cols []int) Mapping {
	mp := Mapping{
		Pairs: make([]Correspondence, len(cols)),
		Score: 1,
	}
	prob := 1.0
	for i, j := range cols {
		rowSum := 0.0
		for _, v := range sim[i] {
			rowSum += v
		}
		p := 0.0
		if rowSum > 0 {
			p = sim[i][j] / rowSum
		}
		mp.Pairs[i] = Correspondence{Predicate: i, Tuple: j, Similarity: sim[i][j], Probability: p}
		mp.Score *= sim[i][j]
		prob *= p
	}
	mp.Probability = prob
	return mp
}
