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

// PreparedSubscription is a subscription as the matcher scores it: its
// compiled theme and one descriptor per predicate. Subscriptions are
// long-lived in a broker, so preparing them once removes canonicalization
// from the per-event hot path, and a broker holds one per registration, so
// it stores nothing that is a function of a similarity row alone: a
// descriptor carries its rows' ids, and the canonical term and relaxed unit
// projection of each row live once, in the matcher's row table (see
// Matcher.internRow). A subscription of at most four predicates is one
// 112-byte object.
//
// Field order matters: the batch scorer visits millions of these as
// scattered heap objects per publish batch, and everything its warm path
// reads — the predicate count, the signature, and the first four predicate
// descriptors — is packed at the front so one cache line serves the whole
// candidate when every row is memoized.
type PreparedSubscription struct {
	// np is the predicate count.
	np int32
	// sig is the interned id of the predicate descriptor sequence for
	// all-equality subscriptions (0 otherwise): equal sigs guarantee
	// bit-identical scores against any event, so the batch scorer memoizes
	// one score per signature per event (see Matcher.sigID). It is also the
	// all-equality flag: those similarity rows write all of their cells, so
	// the batch scorer skips zeroing the matrix.
	sig uint32

	// preds holds the first four predicates' scoring descriptors inline
	// (spill holds all of them when np > 4 — beyond the exhaustive-search
	// mapping sizes, scoring goes through the allocating Hungarian solver
	// anyway). The batch scorer reads only these per predicate — chasing
	// ps.sub.Predicates per (candidate, predicate) was a measured top cost
	// of the batched pipeline; the raw comparison value for non-equality
	// ops is the one exception and takes the cold branch.
	preds [4]predDesc
	spill *[]predDesc

	sub   *event.Subscription
	theme *semantics.CompiledTheme
}

// pred returns predicate i's descriptor (small enough to inline into the
// scoring loops). It is a pointer, so the scorers read the fields they need
// in place instead of copying the descriptor into every call.
func (p *PreparedSubscription) pred(i int) *predDesc {
	if p.np <= 4 {
		return &p.preds[i]
	}
	return &(*p.spill)[i]
}

// predDesc is one predicate's inlined scoring descriptor: the row ids the
// batch scorer's dense row memo is indexed by (see Matcher.internRow), the
// terms' interned ordinals (semantics.TermOrd: ordinal equality is
// canonical-string equality, so the identity rules compare integers, not
// strings), and the flags.
type predDesc struct {
	attrRow  uint32
	valueRow uint32
	attrOrd  uint32
	valueOrd uint32
	flags    uint8
}

// predDesc flags. flagApprox and flagZero are shifted left by the rowKind of
// the side they describe: approx marks a ~-relaxed term, zero a relaxed term
// whose unit projection under the subscription's theme is zero (only for
// equality values, since comparison values are never scored by similarity).
// A zero term relates 0 to everything but its canonical twin: it can only
// match itself. flagEq marks an equality op; the batch scorer reads a
// comparison op, with its raw value, from the subscription.
const (
	flagApprox = 1 << iota
	_
	flagZero
	_
	flagEq
)

// side returns the row id and term ordinal of the predicate's attribute
// (rowAttr) or value (rowValue), and whether that term is relaxed.
func (d *predDesc) side(kind rowKind) (row, ord uint32, approx bool) {
	approx = d.flags>>kind&flagApprox != 0
	if kind == rowValue {
		return d.valueRow, d.valueOrd, approx
	}
	return d.attrRow, d.attrOrd, approx
}

// zero reports whether the relaxed term of the given side has a zero unit
// projection, which reads no unit memory.
func (d *predDesc) zero(kind rowKind) bool { return d.flags>>kind&flagZero != 0 }

// eq reports whether the predicate is an equality op.
func (d *predDesc) eq() bool { return d.flags&flagEq != 0 }

// Subscription returns the underlying subscription.
func (p *PreparedSubscription) Subscription() *event.Subscription { return p.sub }

// relaxed counts the relaxed factors of the similarity cells: relaxed
// attributes, and relaxed values of equality ops (saturating at 255). The
// batch scorer skips the score cap of a candidate with too few to fall
// below the threshold (see BatchArena.SetThreshold).
func (p *PreparedSubscription) relaxed() int {
	k := 0
	for i := 0; i < int(p.np); i++ {
		d := p.pred(i)
		k += int(d.flags & flagApprox)
		if d.eq() {
			k += int(d.flags >> rowValue & flagApprox)
		}
	}
	return min(k, math.MaxUint8)
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
	var view *event.Subscription
	for i := 0; i < int(p.np); i++ {
		d := p.pred(i)
		if !d.zero(rowAttr) && !d.zero(rowValue) {
			continue
		}
		if view == nil {
			cp := *p.sub
			cp.Predicates = slices.Clone(p.sub.Predicates)
			view = &cp
		}
		if d.zero(rowAttr) {
			view.Predicates[i].ApproxAttr = false
		}
		if d.zero(rowValue) {
			view.Predicates[i].ApproxValue = false
		}
	}
	if view == nil {
		return p.sub
	}
	return view
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
// space and interns its similarity rows. The preparation is only valid for
// this matcher.
func (m *Matcher) PrepareSubscription(s *event.Subscription) *PreparedSubscription {
	p := &PreparedSubscription{np: int32(len(s.Predicates)), sub: s}
	descs := p.preds[:]
	if len(s.Predicates) > 4 {
		spill := make([]predDesc, len(s.Predicates))
		p.spill, descs = &spill, spill
	}
	if m.opts.thematic {
		p.theme = m.space.Compile(s.Theme)
	}
	allEq := true
	for i, pred := range s.Predicates {
		allEq = allEq && pred.Op == event.OpEq
		attr, value := text.Canonical(pred.Attr), text.Canonical(pred.Value)
		d := predDesc{attrOrd: m.space.TermOrd(attr), valueOrd: m.space.TermOrd(value)}
		if pred.Op == event.OpEq {
			d.flags |= flagEq
		}
		d.attrRow = m.internRow(rowAttr, pred.ApproxAttr, p.theme, attr, d.attrOrd)
		d.valueRow = m.internRow(rowValue, pred.ApproxValue, p.theme, value, d.valueOrd)
		// A relaxed term the theme filters completely can only match
		// itself (see PruningView); comparison values are never scored by
		// similarity, so only equality values qualify.
		if pred.ApproxAttr {
			d.flags |= flagApprox << rowAttr
			if m.row(d.attrRow).unit.IsZero() {
				d.flags |= flagZero << rowAttr
			}
		}
		if pred.ApproxValue {
			d.flags |= flagApprox << rowValue
			if pred.Op == event.OpEq && m.row(d.valueRow).unit.IsZero() {
				d.flags |= flagZero << rowValue
			}
		}
		descs[i] = d
	}
	if allEq && p.np > 0 {
		// All-equality scores are a pure function of the descriptor
		// sequence and the event, so identical sequences
		// share one interned signature (and one score per event).
		key := make([]byte, 0, 8*p.np)
		for _, d := range descs[:p.np] {
			key = binary.LittleEndian.AppendUint32(key, d.attrRow)
			key = binary.LittleEndian.AppendUint32(key, d.valueRow)
		}
		p.sig = m.sigID(key)
	}
	return p
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
	n, mm := int(ps.np), len(pe.attrs)
	sim := make([][]float64, n)
	cells := make([]float64, n*mm)
	for i := range sim {
		sim[i] = cells[i*mm : (i+1)*mm]
	}
	m.fillSimilarity(sim, ps, pe)
	return sim
}

// fillSimilarity writes the combined similarities into a pre-zeroed n×m
// matrix. The subscription's canonical terms come from the row table.
func (m *Matcher) fillSimilarity(sim [][]float64, ps *PreparedSubscription, pe *PreparedEvent) {
	mm := len(pe.attrs)
	for i := range sim {
		pred := ps.sub.Predicates[i]
		d := ps.pred(i)
		attr, value := m.row(d.attrRow).term, m.row(d.valueRow).term
		for j := 0; j < mm; j++ {
			attrSim := m.termSimilarity(attr, pred.ApproxAttr, pe.attrs[j], ps.theme, pe.theme)
			if attrSim == 0 {
				continue
			}
			var valueSim float64
			if pred.Op == event.OpEq {
				valueSim = m.termSimilarity(value, pred.ApproxValue, pe.values[j], ps.theme, pe.theme)
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
	sim := buf.matrix(int(ps.np), len(pe.attrs))
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
	sim := buf.matrix(int(ps.np), len(pe.attrs))
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
