package matcher

import (
	"math/bits"
	"slices"

	"thematicep/internal/event"
	"thematicep/internal/semantics"
)

// The batch scorer exploits what row-at-a-time ScorePrepared cannot: the
// candidates of one event share a small vocabulary of predicate terms, so
// the same (term, theme) similarity row is recomputed thousands of times
// per publish at scale. ScoreBatchInArena memoizes each distinct row — the
// similarities of one subscription term against every event tuple — in a
// contiguous arena and assembles each subscription's similarity matrix
// from those shared columns, so the semantic measure runs once per
// distinct term, not once per (subscription, term) pair.

// rowKind distinguishes attribute rows (swept against the event's
// canonical attributes) from value rows (swept against its values).
type rowKind uint8

const (
	rowAttr rowKind = iota
	rowValue
)

// rowKeyOf packs one row identity — term ordinal, subscription theme
// ordinal, row kind, approximate flag — into a flat integer, the key of
// the matcher's rowID interner (see matcher.go). The event-side identity
// is NOT part of the key: the memo's lifetime is bounded to one prepared
// event by its owner (BatchArena invalidates whenever the event changes,
// see publishbatch.go), so every live entry already refers to the current
// event. Theme ordinals stay far below 2^30 (bounded by distinct themes),
// term ordinals below 2^32 (bounded by vocabulary).
func rowKeyOf(kind rowKind, approx bool, themeOrd, termOrd uint32) uint64 {
	k := uint64(termOrd)<<32 | uint64(themeOrd)<<2 | uint64(kind)<<1
	if approx {
		k |= 1
	}
	return k
}

// rowSlot is one entry of the dense row memo: the arena offset of the row
// (negative while only the row's mask is known, see rowMiss), the memo
// generation that wrote it, the row's support mask (bit j set when cell j
// may be nonzero; all-ones when the event is wider than 64 tuples), and the
// columns whose cells the arena holds (see fillRow). A filled cell has
// termSimilarity's bits; a cell not yet filled holds 0. Slots from older
// generations are stale; the zero value (epoch 0) never matches a live
// generation.
type rowSlot struct {
	off    int32
	epoch  uint32
	mask   uint64
	filled uint64
}

// batchBuf is the scoring state of one BatchArena: the row memo, the row
// arena (stride = event tuple count), and the usual similarity matrix
// buffers. The memo is a flat table indexed by the matcher's interned row
// ids — a candidate's predicates carry their ids inline (predDesc), so a
// memo probe is one array read, no hashing. Invalidation bumps a
// generation counter instead of clearing the table, so moving to the next
// event costs O(1) regardless of how many rows the previous event touched.
// Rows live as arena offsets, not slices, so arena growth never
// invalidates them; so do the event-side score bounds (see eventBounds).
// For the batch-amortization telemetry, accumulated across a whole publish
// batch, computed counts rows opened in the arena (see fillRow) and reused
// counts row requests the memo served.
type batchBuf struct {
	sim      simBuf
	dense    []rowSlot   // indexed by matcher rowID
	scores   []sigSlot   // indexed by matcher sigID
	evBounds []boundSlot // indexed by subscription theme ordinal (see eventBounds)
	epoch    uint32      // current memo generation
	arena    []float64
	scratch  []float64 // all-zero between rows; Index.NumDocs() long (see NewBatchArena)
	floor    float64   // θ·(1 − 10⁻⁹): the cut of the score cap and of value cells; ≤ 0 turns both off
	relFloor float64   // the space's RelatednessFloor
	certain  int       // a candidate with at most this many relaxed factors has a cap ≥ floor
	computed uint64
	reused   uint64
}

// sigSlot is one entry of the score memo: the finished score of an
// all-equality predicate signature against the current event. Its validity
// domain is exactly the row memo's — such a score is a pure function of the
// memoized rows — so it shares the same generation counter.
type sigSlot struct {
	score float64
	epoch uint32
}

// invalidate retires every memoized row in O(1) by advancing the memo
// generation. On the (4-billion-invalidation) wraparound the table is
// cleared for real, so a stale slot can never alias a new generation.
func (bb *batchBuf) invalidate() {
	bb.arena = bb.arena[:0]
	bb.epoch++
	if bb.epoch == 0 {
		clear(bb.dense)
		clear(bb.scores)
		clear(bb.evBounds)
		bb.epoch = 1
	}
}

// put memoizes a row slot under its row id.
func (bb *batchBuf) put(rowID uint32, slot rowSlot) {
	if int(rowID) >= len(bb.dense) {
		bb.dense = append(bb.dense, make([]rowSlot, int(rowID)+1-len(bb.dense))...)
	}
	bb.dense[rowID] = slot
}

// rowMiss memoizes predicate i's attribute or value row on a memo miss and
// returns its mask. Only the mask is decided here, by rowMask, and the
// similarities wait for phase 2 of scoreBatchInto: most candidates fail
// their mask check, and a row none of the survivors reads is never filled.
func (m *Matcher) rowMiss(bb *batchBuf, kind rowKind, pd *predDesc, pe *PreparedEvent) uint64 {
	rowID, _, _ := pd.side(kind)
	mask := rowMask(kind, pd, pe)
	bb.put(rowID, rowSlot{off: -1, epoch: bb.epoch, mask: mask})
	return mask
}

// rowMask is the support mask of a predicate's attribute or value row, read
// off the event's live columns instead of the filled row: every row is 1 at
// the columns canonically identical to its term, and a relaxed term's row
// can be nonzero only at the event's live columns, and only when the term's
// own unit is nonzero (see semantics.RelatednessRowPreUnits). Under
// Euclidean distance it is exactly the mask fillRow derives from the filled
// row; under cosine, which is also 0 for disjoint nonzero units, it is a
// superset of that mask, so a candidate it rejects has a row of empty
// support all the same.
func rowMask(kind rowKind, pd *predDesc, pe *PreparedEvent) uint64 {
	_, ord, approx := pd.side(kind)
	evOrds, live := pe.attrOrds, pe.attrLive
	if kind == rowValue {
		evOrds, live = pe.valueOrds, pe.valueLive
	}
	if len(evOrds) > 64 {
		return ^uint64(0)
	}
	var mask uint64
	if approx && !pd.zero(kind) {
		mask = live
	}
	for j, eo := range evOrds {
		if ord == eo {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// fillRow fills the cells cols selects (bit j for column j) of a predicate's
// attribute or value row against the event's terms, opening the row in
// the arena first if its slot is still mask-only, and returns the row's
// arena offset. Opening writes every cell the support mask already decides —
// 0 outside the mask, 1 at the columns canonically identical to the term —
// so only the relaxed cells inside the mask wait for the row kernel, and a
// later call fills only the selected cells still missing. The cells are
// exactly termSimilarity's: canonical equality always scores 1 (even across
// themes), exact terms otherwise 0, approximate terms the parametric
// measure, through the row kernel on the unit projections both sides
// resolved at preparation (the subscription's in the row table): pure dot
// products against the arena's scratch, no cache lookups at all. A row
// against an event wider than 64 tuples is filled whole when it opens,
// whatever cols says.
func (m *Matcher) fillRow(bb *batchBuf, kind rowKind, pd *predDesc, st *semantics.CompiledTheme, pe *PreparedEvent, cols uint64) int32 {
	rowID, ord, approx := pd.side(kind)
	evOrds, live, units := pe.attrOrds, pe.attrLive, pe.attrUnits
	if kind == rowValue {
		evOrds, live, units = pe.valueOrds, pe.valueLive, pe.valueUnits
	}
	s := &bb.dense[rowID]
	mm := len(evOrds)
	if s.off < 0 {
		bb.computed++
		s.off = int32(len(bb.arena))
		bb.arena = slices.Grow(bb.arena, mm)[:int(s.off)+mm]
		row := bb.arena[s.off:]
		clear(row)
		switch {
		case !approx || live == 0:
			// An exact term, or a relaxed one against an event with no
			// live column (every event unit zero, which scores 0 under
			// either distance): only identity columns can be nonzero.
			s.filled = ^uint64(0)
		case mm > 64:
			m.space.RelatednessRowPreUnits(m.row(rowID).unit, ord, st, evOrds, units, pe.theme, bb.scratch, row, ^uint64(0))
			s.filled = ^uint64(0)
		default:
			s.filled = ^s.mask
		}
		// Term identity is compared through interned ordinals (ordinal
		// equality is canonical-string equality by TermOrd's construction).
		// termSimilarity scores canonically equal terms 1 regardless of
		// theme; the row kernel's identity rule is narrower (same compiled
		// theme), so the broader contract is applied here, and the kernel
		// never revisits these columns.
		for j, eo := range evOrds {
			if ord == eo {
				row[j] = 1
				s.filled |= 1 << (uint(j) & 63)
			}
		}
	}
	need := cols &^ s.filled
	if need == 0 {
		return s.off
	}
	// Only events of at most 64 tuples get here, and only with relaxed
	// terms (only relaxed rows keep a unit, see rowInfo).
	row := bb.arena[s.off : int(s.off)+mm]
	m.space.RelatednessRowPreUnits(m.row(rowID).unit, ord, st, evOrds, units, pe.theme, bb.scratch, row, need)
	s.filled |= need
	// Under cosine a live cell can come out 0; the mask drops it, so a
	// later candidate's mask check sees the support filled so far.
	for c := need; c != 0; c &= c - 1 {
		if j := bits.TrailingZeros64(c); row[j] == 0 {
			s.mask &^= 1 << uint(j)
		}
	}
	return s.off
}

// scoreBatchInto is the columnar sweep behind ScoreBatchInArena: one
// prepared event against a batch of prepared subscriptions, one score per
// subscription appended (in order) to out. Scores are bit-identical to
// calling ScorePrepared per subscription: the similarity cells come from
// the same termSimilarity / EvalOp semantics in the same combination
// order, and the mapping search is the same bestScore. With warm semantic
// caches and ≤4-predicate subscriptions the whole sweep is allocation-free
// (asserted in batch_test.go); only the Hungarian path beyond allocates,
// inside the solver, exactly as ScorePrepared does. Row keys carry no
// event identity; the arena clears the memo before it can ever span two
// prepared events. With a threshold set on the arena, a candidate whose
// cap (scoreCap) is below it scores RejectedByBound instead, and so does
// one whose matrix left out a value cell and whose best mapping then scores
// below it: every candidate that can reach the threshold keeps its bits.
func (m *Matcher) scoreBatchInto(bb *batchBuf, subs []*PreparedSubscription, pe *PreparedEvent, out []float64) []float64 {
	mm := len(pe.attrs)
	for _, ps := range subs {
		n := int(ps.np)
		if n == 0 || n > mm {
			// No feasible injective mapping; ScorePrepared's bestScore
			// returns 0 for the same shapes.
			out = append(out, 0)
			continue
		}
		if s := ps.sig; s != 0 && int(s) < len(bb.scores) && bb.scores[s].epoch == bb.epoch {
			// Duplicate of an already-scored subscription: an identical
			// descriptor sequence against the same event builds the
			// same matrix, so the memoized score is bit-identical.
			out = append(out, bb.scores[s].score)
			continue
		}
		// Phase 1: check feasibility from the support masks of the
		// candidate's rows. A predicate whose matrix row has empty support
		// (for equality ops, empty attr∧value support) forces a zero cell
		// into every injective mapping, so the score is exactly 0 — the
		// common case at scale, where most candidates survive pruning but
		// match nothing — and the matrix fill and mapping search are skipped
		// entirely. A memo miss decides the mask alone (rowMiss), so a
		// rejected candidate fills no row either.
		feasible := true
		for i := 0; i < n; i++ {
			pd := ps.pred(i)
			// Memo probes are inlined (rowMiss is too big to inline and most
			// probes hit, so the call itself was measurable).
			var am uint64
			if r := pd.attrRow; int(r) < len(bb.dense) && bb.dense[r].epoch == bb.epoch {
				am = bb.dense[r].mask
				bb.reused++
			} else {
				am = m.rowMiss(bb, rowAttr, pd, pe)
			}
			if pd.eq() {
				var vm uint64
				if r := pd.valueRow; int(r) < len(bb.dense) && bb.dense[r].epoch == bb.epoch {
					vm = bb.dense[r].mask
					bb.reused++
				} else {
					vm = m.rowMiss(bb, rowValue, pd, pe)
				}
				am &= vm
			}
			// Comparison ops only filter the attr row, so its support
			// bounds the matrix row's.
			if am == 0 {
				feasible = false
				break
			}
		}
		var sc float64
		switch {
		case !feasible:
		case bb.floor > 0 && (ps.theme != nil || pe.theme != nil) && ps.relaxed() > bb.certain &&
			m.scoreCap(bb, ps, pe, bb.floor) < bb.floor:
			// Phase 1b: the candidate's theme-basis cap (see bound.go) proves
			// its score below the threshold, so no row is filled for it.
			// Without themes on either side the cap bounds nothing, and with
			// too few relaxed factors it cannot fall below the threshold.
			sc = RejectedByBound
		default:
			// Phase 2: build the matrix from the candidate's rows. Every
			// attribute row is filled whole. A value cell is filled only
			// where its attribute cell can carry a match: nonzero and, with
			// a threshold, at least θ·(1 − 10⁻⁹). Every factor is at most 1
			// and rounding is monotone, so a mapping through a cell whose
			// attribute factor is below that scores below θ; the cell stays
			// 0, which only lowers such mappings. The Hungarian path (more
			// than four predicates) fills every nonzero attribute cell's
			// value: its choice of mapping is not a plain maximum of the
			// products, so no cell is left out there.
			cut := bb.floor
			if n > 4 {
				cut = 0
			}
			lossy := false
			var sim [][]float64
			if ps.sig != 0 {
				// Equality rows overwrite every cell, so skip the zeroing.
				sim = bb.sim.shape(n, mm)
			} else {
				sim = bb.sim.matrix(n, mm)
			}
			for i := 0; i < n; i++ {
				pd := ps.pred(i)
				row := sim[i]
				// A slot still mask-only is filled now that a candidate
				// that passed its masks reads it; attribute rows are
				// filled whole, so an open one is complete.
				aOff := bb.dense[pd.attrRow].off
				if aOff < 0 {
					aOff = m.fillRow(bb, rowAttr, pd, ps.theme, pe, ^uint64(0))
				}
				arow := bb.arena[aOff : int(aOff)+mm]
				if pd.eq() {
					var nz, carry uint64
					for j, a := range arow {
						if a != 0 {
							nz |= 1 << (uint(j) & 63)
							if a >= cut {
								carry |= 1 << (uint(j) & 63)
							}
						}
					}
					v := &bb.dense[pd.valueRow]
					if v.off < 0 || carry&^v.filled != 0 {
						m.fillRow(bb, rowValue, pd, ps.theme, pe, carry)
					}
					// A nonzero attribute cell whose value cell is still
					// unfilled (and not known 0) left its cell out.
					lossy = lossy || nz&^v.filled != 0
					vrow := bb.arena[v.off : int(v.off)+mm]
					for j := 0; j < mm; j++ {
						row[j] = arow[j] * vrow[j]
					}
				} else {
					// Cold branch: comparison predicates need the raw (non-
					// canonical) value, which only the subscription holds.
					pred := ps.sub.Predicates[i]
					for j := 0; j < mm; j++ {
						// Comparison predicates contribute the attribute
						// similarity when satisfied over raw values, exactly
						// as fillSimilarity does.
						if arow[j] != 0 && event.EvalOp(pred.Op, pe.ev.Tuples[j].Value, pred.Value) {
							row[j] = arow[j]
						}
					}
				}
			}
			// A matrix with cells left out has ScorePrepared's best score
			// when that reaches θ·(1 − 10⁻⁹): the mappings through a left-out
			// cell score below it. Otherwise the candidate scores below θ.
			if sc = m.bestScore(&bb.sim, sim); lossy && sc < bb.floor {
				sc = RejectedByBound
			}
		}
		if s := ps.sig; s != 0 {
			if int(s) >= len(bb.scores) {
				bb.scores = append(bb.scores, make([]sigSlot, int(s)+1-len(bb.scores))...)
			}
			bb.scores[s] = sigSlot{score: sc, epoch: bb.epoch}
		}
		out = append(out, sc)
	}
	return out
}
