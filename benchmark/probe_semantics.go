package main

import (
	"thematicep/internal/semantics"
	"thematicep/internal/text"
)

// termPair is one (subscription value, event value) pair with the themes it
// is measured under.
type termPair struct {
	subTerm, evTerm   string
	subTheme, evTheme []string
}

// termPairs draws the value pairs the relatedness probes measure: each
// template's first tuple against a stride of the population's first
// predicates.
func (p *probes) termPairs(limit int) []termPair {
	var out []termPair
	for t, e := range p.in.Events {
		for i := t; i < len(p.in.Subs) && len(out) < limit; i += len(p.in.Events) {
			s := p.in.Subs[i]
			out = append(out, termPair{
				subTerm: text.Canonical(s.Predicates[0].Value), subTheme: s.Theme,
				evTerm: text.Canonical(e.Tuples[0].Value), evTheme: e.Theme,
			})
		}
	}
	return out
}

// semantics times theme compilation and the relatedness measure warm (every
// cache filled) and cold (a fresh space over the same index: term vectors,
// theme bases and projections all computed on the way).
func (p *probes) semantics() {
	pairs := p.termPairs(4096)
	cold := semantics.NewSpace(p.space.Index())
	coldPer := p.each("semantics.relatedness_cold", len(pairs), func(i int) {
		pr := pairs[i]
		cold.RelatednessCompiled(pr.subTerm, cold.Compile(pr.subTheme), pr.evTerm, cold.Compile(pr.evTheme))
	})

	subThemes := make([]*semantics.CompiledTheme, len(pairs))
	evThemes := make([]*semantics.CompiledTheme, len(pairs))
	compile := p.loop("semantics.compile_theme", 2*len(pairs), func() {
		for i, pr := range pairs {
			subThemes[i], evThemes[i] = cold.Compile(pr.subTheme), cold.Compile(pr.evTheme)
		}
	})
	var sink float64
	warmPer := p.loop("semantics.relatedness_warm", len(pairs), func() {
		for i, pr := range pairs {
			sink += cold.RelatednessCompiled(pr.subTerm, subThemes[i], pr.evTerm, evThemes[i])
		}
	})
	_ = sink

	p.set("semantics.relatedness_cold_us", us(coldPer), "us", len(pairs))
	p.set("semantics.relatedness_warm_ns", warmPer, "ns", len(pairs))
	p.set("semantics.compile_theme_us", compile/1000, "us", 2*len(pairs))
}
