package main

import (
	"thematicep/internal/assign"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// kernels times the three leaf kernels under the matcher's score path: the
// unit dot product behind every relatedness cell, the assignment solver
// that picks the best predicate→tuple mapping, and term canonicalization.
func (p *probes) kernels() {
	pairs := p.termPairs(4096)

	type unitPair struct{ a, b sparse.Unit }
	units := make([]unitPair, 0, len(pairs))
	for _, pr := range pairs {
		a, _ := p.space.ResolveUnit(pr.subTerm, p.space.Compile(pr.subTheme))
		b, _ := p.space.ResolveUnit(pr.evTerm, p.space.Compile(pr.evTheme))
		units = append(units, unitPair{a, b})
	}
	var sink float64
	const rounds = 16
	dot := p.loop("sparse.dot_unit", rounds*len(units), func() {
		for range rounds {
			for _, u := range units {
				sink += sparse.DotUnit(u.a, u.b)
			}
		}
	})

	// One similarity matrix (predicates × tuples) per sampled candidate
	// pair, filled with the real measure.
	var matrices [][][]float64
	for t, c := range p.cands {
		if len(c) == 0 {
			continue
		}
		s, e := p.in.Subs[c[0]], p.in.Events[t]
		sth, eth := p.space.Compile(s.Theme), p.space.Compile(e.Theme)
		m := make([][]float64, len(s.Predicates))
		for i, pred := range s.Predicates {
			m[i] = make([]float64, len(e.Tuples))
			for j, tu := range e.Tuples {
				m[i][j] = p.space.RelatednessCompiled(text.Canonical(pred.Value), sth, text.Canonical(tu.Value), eth)
			}
		}
		matrices = append(matrices, m)
	}
	best := p.loop("assign.best", rounds*len(matrices), func() {
		for range rounds {
			for _, m := range matrices {
				a, _ := assign.Best(m)
				sink += a.Total
			}
		}
	})

	var raw []string
	for _, e := range p.in.Events {
		for _, tu := range e.Tuples {
			raw = append(raw, tu.Attr, tu.Value)
		}
	}
	n := 0
	canon := p.loop("text.canonical", len(raw), func() {
		for _, s := range raw {
			n += len(text.Canonical(s))
		}
	})
	_, _ = sink, n

	p.set("sparse.dot_unit_ns", dot, "ns", rounds*len(units))
	p.set("assign.best_ns", best, "ns", rounds*len(matrices))
	p.set("text.canonical_ns", canon, "ns", len(raw))
}
