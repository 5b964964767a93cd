package matcher

import (
	"slices"
	"sync/atomic"

	"thematicep/internal/semantics"
	"thematicep/internal/sparse"
)

// This file is phase 1b of the batch scorer (see scoreBatchInto): a
// candidate that passed its support masks is rejected before any row is
// filled when a cheap cap on its score is below the arena's threshold.
// Algorithm 1 zeroes every projection component outside the theme's basis,
// so a relaxed cell is at most the smaller of two bounds: the subscription
// term's (semantics.RelatednessBound of its unit against the event's theme)
// and the event column's (of its unit against the subscription's theme). A
// predicate's cell is at most the largest product of its attribute and
// value bounds over the columns, and the top-1 mapping's product at most
// the product of those (every cell lies in [0, 1], and rounding is
// monotone, so the float product of the caps is at least the float product
// of the cells).

// RejectedByBound is the score ScoreBatchInArena reports for a candidate
// whose cap is below the arena's threshold (see BatchArena.SetThreshold):
// negative, so below every threshold and distinct from every score.
const RejectedByBound = -1.0

const (
	// boundSlack lowers the threshold a cap is compared with, so a cap
	// equal to a score in exact arithmetic never rejects it. The caps
	// already carry semantics' dot-space margin; this one is belt and braces.
	boundSlack = 1e-9

	// boundBits sizes a matcher's subscription-side bound table: 2^15
	// words, 256 KB.
	boundBits = 15
	// boundQuant is the scale a table word stores a bound at: 16 bits,
	// rounded up.
	boundQuant = 1<<16 - 1
	// boundThemes bounds the event-theme ordinals the table keys hold (12
	// bits); bounds under later themes are computed at each use.
	boundThemes = 1 << 12
)

// boundTable memoizes the subscription-side bounds of one matcher. Such a
// bound depends only on the row (its term and subscription theme) and the
// event theme, so one table serves every arena and every event. It is
// direct-mapped and lock-free: each word packs the exact key — row id in
// bits 28–59, event-theme ordinal in bits 16–27 — and the bound rounded up
// to 16 bits, so a load either finds its own key or misses, and racing
// stores only overwrite one valid word with another. Row ids start at 1, so
// the zero word matches no key.
type boundTable [1 << boundBits]atomic.Uint64

// bounds returns the matcher's bound table, allocating it on first use, so
// a matcher nobody scores against a threshold never pays for it.
func (m *Matcher) bounds() *boundTable {
	if t := m.boundTab.Load(); t != nil {
		return t
	}
	m.boundTab.CompareAndSwap(nil, new(boundTable))
	return m.boundTab.Load()
}

// subBound bounds a predicate's attribute or value cells against every
// event column under theme et that is not canonically identical to the
// term: 0 for an exact term or one the subscription's theme filters
// completely (their rows are nonzero only at identity columns), otherwise
// the term's RelatednessBound against et, through the matcher's table.
// Event themes past the table's 12 bits skip it.
func (m *Matcher) subBound(pd *predDesc, kind rowKind, et *semantics.CompiledTheme) float64 {
	rowID, _, approx := pd.side(kind)
	if !approx || pd.zero(kind) {
		return 0
	}
	o := et.Ord()
	if o == 0 || o >= boundThemes {
		return m.space.RelatednessBound(m.row(rowID).unit, et)
	}
	key := uint64(rowID)<<28 | uint64(o)<<16
	w := &m.bounds()[(key*0x9E3779B97F4A7C15)>>(64-boundBits)]
	if v := w.Load(); v&^boundQuant == key {
		return float64(v&boundQuant) / boundQuant
	}
	// Truncate and add one step: the stored bound is strictly above the
	// computed one. RelatednessBound never exceeds 1.
	q := min(uint64(m.space.RelatednessBound(m.row(rowID).unit, et)*boundQuant)+1, boundQuant)
	w.Store(key | q)
	return float64(q) / boundQuant
}

// boundSlot locates one subscription theme's event-side bounds in the
// arena: the offset of 2·m floats (the event's m attribute columns, then
// its m value columns) and the memo generation that wrote them.
type boundSlot struct {
	off   int32
	epoch uint32
}

// eventBounds returns the event-side bounds of the event's attribute and
// value columns against subscription theme st. They depend on the event,
// so they live in the arena beside its rows, one row per subscription
// theme, retired with the row memo. A cell is negative until its first use
// (evBound): most candidates need few columns' bounds.
func (m *Matcher) eventBounds(bb *batchBuf, st *semantics.CompiledTheme, pe *PreparedEvent) []float64 {
	mm := len(pe.attrUnits)
	o := st.Ord()
	if int(o) < len(bb.evBounds) && bb.evBounds[o].epoch == bb.epoch {
		off := bb.evBounds[o].off
		return bb.arena[off : int(off)+2*mm]
	}
	off := int32(len(bb.arena))
	bb.arena = slices.Grow(bb.arena, 2*mm)[:int(off)+2*mm]
	out := bb.arena[off:]
	for j := range out {
		out[j] = -1
	}
	if int(o) >= len(bb.evBounds) {
		bb.evBounds = append(bb.evBounds, make([]boundSlot, int(o)+1-len(bb.evBounds))...)
	}
	bb.evBounds[o] = boundSlot{off: off, epoch: bb.epoch}
	return out
}

// evBound returns cell j of an event-side bound row: RelatednessBound of
// the column's unit u against st (0 for a zero unit), computed at first use.
func (m *Matcher) evBound(row []float64, j int, u *sparse.Unit, st *semantics.CompiledTheme) float64 {
	if b := row[j]; b >= 0 {
		return b
	}
	b := m.space.RelatednessBound(u, st)
	row[j] = b
	return b
}

// scoreCap returns an upper bound on ps's score against pe: the product
// over predicates of the largest cell bound over the event's columns. A
// cell's attribute or value factor is 1 at a canonically identical column
// and otherwise the smaller of the subscription-side and event-side
// bounds; a comparison op is bounded by its attribute factor alone. A
// column whose factors cannot beat the predicate's best even at their
// subscription-side bounds needs no event-side bound, and the product only
// falls, so the sweep stops once it is below floor.
func (m *Matcher) scoreCap(bb *batchBuf, ps *PreparedSubscription, pe *PreparedEvent, floor float64) float64 {
	ev := m.eventBounds(bb, ps.theme, pe)
	mm := len(pe.attrOrds)
	evA, evV := ev[:mm], ev[mm:2*mm]
	bound := 1.0
	for i := 0; i < int(ps.np); i++ {
		pd := ps.pred(i)
		eq := pd.eq()
		fa, ord := m.subBound(pd, rowAttr, pe.theme), pd.attrOrd
		fv, vord := 1.0, uint32(0)
		if eq {
			fv, vord = m.subBound(pd, rowValue, pe.theme), pd.valueOrd
		}
		best := 0.0
		for j := range mm {
			a, v := fa, fv
			idA, idV := pe.attrOrds[j] == ord, eq && pe.valueOrds[j] == vord
			if idA {
				a = 1
			}
			if idV {
				v = 1
			}
			if a*v <= best {
				continue
			}
			if !idA {
				a = min(a, m.evBound(evA, j, &pe.attrUnits[j], ps.theme))
			}
			if eq && !idV && a*v > best {
				v = min(v, m.evBound(evV, j, &pe.valueUnits[j], ps.theme))
			}
			best = max(best, a*v)
		}
		if bound *= best; bound < floor {
			break
		}
	}
	return bound
}
