package matcher

import (
	"slices"

	"thematicep/internal/event"
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
// is NOT part of the key: the memo's lifetime is bounded to one event's
// term vectors by its owner (BatchArena invalidates whenever the event
// vector changes, see publishbatch.go), so every live entry already refers
// to the current event. Theme ordinals stay far below 2^30 (bounded by distinct themes),
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
// generation that wrote it, and the row's support mask (bit j set when cell
// j may be nonzero; all-ones when the event is wider than 64 tuples). Slots
// from older generations are stale; the zero value (epoch 0) never matches a
// live generation.
type rowSlot struct {
	off   int32
	epoch uint32
	mask  uint64
}

// batchBuf is the scoring state of one BatchArena: the row memo, the row
// arena (stride = event tuple count), and the usual similarity matrix
// buffers. The memo is a flat table indexed by the matcher's interned row
// ids — a candidate's predicates carry their ids inline (predDesc), so a
// memo probe is one array read, no hashing. Invalidation bumps a
// generation counter instead of clearing the table, so moving to the next
// event costs O(1) regardless of how many rows the previous event touched.
// Rows live as arena offsets, not slices, so arena growth never
// invalidates them. For the batch-amortization telemetry, accumulated
// across a whole publish batch, computed counts rows whose similarities
// were filled and reused counts row requests the memo served.
type batchBuf struct {
	sim      simBuf
	dense    []rowSlot // indexed by matcher rowID
	scores   []sigSlot // indexed by matcher sigID
	epoch    uint32    // current memo generation
	arena    []float64
	scratch  []float64 // all-zero between rows; Index.NumDocs() long (see NewBatchArena)
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
// returns its mask. On the resolved-unit Euclidean path (both sides carry
// their unit projections) only the mask is decided here, by rowMask, and the
// similarities wait for phase 2 of scoreBatchInto: most candidates fail
// their mask check, and a row none of the survivors reads is never filled.
// Everywhere else the row is filled at once and its mask read off it.
func (m *Matcher) rowMiss(bb *batchBuf, kind rowKind, i int, ps *PreparedSubscription, pe *PreparedEvent) uint64 {
	if !pe.hasUnits || !ps.hasUnits {
		return m.fillRow(bb, kind, i, ps, pe).mask
	}
	rowID := ps.pred(i).attrRow
	if kind == rowValue {
		rowID = ps.pred(i).valueRow
	}
	mask := rowMask(kind, i, ps, pe)
	bb.put(rowID, rowSlot{off: -1, epoch: bb.epoch, mask: mask})
	return mask
}

// rowMask is the support mask of predicate i's attribute or value row, read
// off the event's live columns instead of the filled row. It holds on the
// resolved-unit Euclidean path only, where a relaxed term's row is nonzero
// exactly at the event's live columns when the term's own unit is nonzero
// (the support rule, see semantics.LiveColumns), and every row is 1 at the
// columns canonically identical to its term. It is the mask fillRow
// derives from the filled row.
func rowMask(kind rowKind, i int, ps *PreparedSubscription, pe *PreparedEvent) uint64 {
	pd := ps.pred(i)
	ord, approx, evOrds, live := ps.attrOrds[i], pd.approxA, pe.attrOrds, pe.attrLive
	if kind == rowValue {
		ord, approx, evOrds, live = ps.valueOrds[i], pd.approxV, pe.valueOrds, pe.valueLive
	}
	if len(evOrds) > 64 {
		return ^uint64(0)
	}
	var mask uint64
	if approx && !ps.zeroUnit(kind, i) {
		mask = live
	}
	for j, eo := range evOrds {
		if ord == eo {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// fillRow fills and memoizes the similarity row for predicate i's
// attribute or value term against the event's terms, returning the row's
// memo slot. The row semantics are exactly termSimilarity's: canonical
// equality always scores 1 (even across themes), exact terms otherwise 0,
// approximate terms the parametric measure — swept column-wise through the
// resolved row kernel when both sides carry their unit projections, cell by
// cell through the scalar measure otherwise (cosine distance, an active
// score cache, an event prepared outside a batch).
func (m *Matcher) fillRow(bb *batchBuf, kind rowKind, i int, ps *PreparedSubscription, pe *PreparedEvent) rowSlot {
	pd := ps.pred(i)
	rowID, ord, approx := pd.attrRow, ps.attrOrds[i], pd.approxA
	evOrds, live := pe.attrOrds, pe.attrLive
	if kind == rowValue {
		rowID, ord, approx = pd.valueRow, ps.valueOrds[i], pd.approxV
		evOrds, live = pe.valueOrds, pe.valueLive
	}
	bb.computed++
	off := int32(len(bb.arena))
	mm := len(evOrds)
	bb.arena = slices.Grow(bb.arena, mm)[:int(off)+mm]
	row := bb.arena[off : int(off)+mm]
	resolved := pe.hasUnits && ps.hasUnits
	switch {
	case !approx || resolved && live == 0:
		// An exact term, or a relaxed one against an event with no live
		// column: by the support rule only identity columns can be nonzero,
		// and the pass below writes those.
		clear(row)
	case resolved:
		// Both sides resolved their unit projections up front (subscription
		// at preparation, event at batch prepare): the row is pure dot
		// products against the arena's scratch, no cache lookups at all.
		// Only the relaxed side's unit slice exists (see resolveUnits).
		subUnits, units := ps.attrUnits, pe.attrUnits
		if kind == rowValue {
			subUnits, units = ps.valueUnits, pe.valueUnits
		}
		m.space.RelatednessRowPreUnits(&subUnits[i], ord, ps.theme, evOrds, units, pe.theme, bb.scratch, row)
	default:
		term, evTerms := ps.attrs[i], pe.attrs
		if kind == rowValue {
			term, evTerms = ps.values[i], pe.values
		}
		for j, et := range evTerms {
			row[j] = m.space.RelatednessCompiled(term, ps.theme, et, pe.theme)
		}
	}
	// Term identity is compared through interned ordinals (ordinal equality
	// is canonical-string equality by TermOrd's construction). termSimilarity
	// scores canonically equal terms 1 regardless of theme; the row kernels'
	// identity rule is narrower (same compiled theme), so the broader
	// contract is applied here, in the same pass that builds the support
	// mask.
	var mask uint64
	for j, eo := range evOrds {
		if ord == eo {
			row[j] = 1
		}
		if row[j] != 0 {
			mask |= 1 << (uint(j) & 63)
		}
	}
	if mm > 64 {
		mask = ^uint64(0)
	}
	slot := rowSlot{off: off, epoch: bb.epoch, mask: mask}
	bb.put(rowID, slot)
	return slot
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
// distinct event vectors.
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
			// descriptor sequence against the same event vectors builds the
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
		// entirely. On the resolved-unit path a memo miss decides the mask
		// alone (rowMiss), so a rejected candidate fills no row either.
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
				am = m.rowMiss(bb, rowAttr, i, ps, pe)
			}
			if pd.op == event.OpEq {
				var vm uint64
				if r := pd.valueRow; int(r) < len(bb.dense) && bb.dense[r].epoch == bb.epoch {
					vm = bb.dense[r].mask
					bb.reused++
				} else {
					vm = m.rowMiss(bb, rowValue, i, ps, pe)
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
		if feasible {
			// Phase 2: build the matrix from the candidate's rows.
			var sim [][]float64
			if ps.allEq {
				// Equality rows overwrite every cell, so skip the zeroing.
				sim = bb.sim.shape(n, mm)
			} else {
				sim = bb.sim.matrix(n, mm)
			}
			for i := 0; i < n; i++ {
				pd := ps.pred(i)
				row := sim[i]
				// A slot still mask-only is filled now that a candidate
				// that passed its masks reads it.
				aOff := bb.dense[pd.attrRow].off
				if aOff < 0 {
					aOff = m.fillRow(bb, rowAttr, i, ps, pe).off
				}
				if pd.op == event.OpEq {
					vOff := bb.dense[pd.valueRow].off
					if vOff < 0 {
						vOff = m.fillRow(bb, rowValue, i, ps, pe).off
					}
					arow := bb.arena[aOff : int(aOff)+mm]
					vrow := bb.arena[vOff : int(vOff)+mm]
					for j := 0; j < mm; j++ {
						row[j] = arow[j] * vrow[j]
					}
				} else {
					// Cold branch: comparison predicates need the raw (non-
					// canonical) value, which only the subscription holds.
					arow := bb.arena[aOff : int(aOff)+mm]
					pred := ps.sub.Predicates[i]
					for j := 0; j < mm; j++ {
						// Comparison predicates contribute the attribute
						// similarity when satisfied over raw values, exactly
						// as fillSimilarity does.
						if arow[j] != 0 && event.EvalOp(pd.op, pe.ev.Tuples[j].Value, pred.Value) {
							row[j] = arow[j]
						}
					}
				}
			}
			sc = m.bestScore(&bb.sim, sim)
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
