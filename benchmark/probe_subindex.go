package main

import "thematicep/internal/subindex"

// subindex builds the pruning index over the population, times add/remove
// of the spare subscriptions against the full index (what a churn cycle
// does), and enumerates every template's candidates.
func (p *probes) subindex() {
	p.six = subindex.New[int32]()
	for i, s := range p.in.Subs {
		p.six.Add(s.ID, s, int32(i))
	}
	add := p.each("subindex.add", len(p.in.Spare), func(i int) {
		s := p.in.Spare[i]
		p.six.Add(s.ID, s, -1)
	})
	remove := p.each("subindex.remove", len(p.in.Spare), func(i int) {
		p.six.Remove(p.in.Spare[i].ID)
	})

	n := len(p.in.Events)
	attrs, values := make([][]string, n), make([][]string, n)
	for t, e := range p.in.Events {
		attrs[t], values[t] = p.m.PrepareEvent(e).CanonicalTuples()
	}
	p.cands = make([][]int32, n)
	var total, pruned int
	enumerate := func(t int) {
		buf := p.cands[t][:0]
		c, pr := p.six.CandidatesPrepared(attrs[t], values[t], func(i int32) { buf = append(buf, i) })
		p.cands[t] = buf
		total += c
		pruned += pr
	}
	// The first pass grows the candidate buffers; the second is the warm
	// path a long-running daemon runs.
	for t := range n {
		enumerate(t)
	}
	total, pruned = 0, 0
	enum := p.each("subindex.candidates", n, enumerate)

	p.set("subindex.add_us", us(add), "us", len(p.in.Spare))
	p.set("subindex.remove_us", us(remove), "us", len(p.in.Spare))
	p.set("subindex.candidates_us", us(enum), "us", n)
	p.set("subindex.candidates_per_event", float64(total)/float64(n), "count", n)
	p.set("subindex.pruned_ratio", float64(pruned)/float64(max(total+pruned, 1)), "ratio", n)
}
