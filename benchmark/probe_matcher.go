package main

import (
	"time"

	"thematicep/internal/matcher"
)

// scoreChunk is the candidate chunk the daemon hands one scoring call.
const scoreChunk = 256

// matcher times preparation and scoring over the (template, candidate)
// pairs the subindex probe enumerated: once pair by pair through the scalar
// ScorePrepared (the oracle's path), once through the batch context and
// arena the daemon's pipeline uses, in frames of the workload's batch size.
func (p *probes) matcher() {
	p.subs = make([]*matcher.PreparedSubscription, len(p.in.Subs))
	prepSub := p.each("matcher.prepare_sub", len(p.subs), func(i int) {
		p.subs[i] = p.m.PrepareSubscription(p.in.Subs[i])
	})
	n := len(p.in.Events)
	pes := make([]*matcher.PreparedEvent, n)
	prepEv := p.each("matcher.prepare_event", n, func(t int) {
		pes[t] = p.m.PrepareEvent(p.in.Events[t])
	})

	pairs := 0
	for _, c := range p.cands {
		pairs += len(c)
	}
	var sink float64
	scalar := p.loop("matcher.score_prepared", pairs, func() {
		for t, c := range p.cands {
			for _, i := range c {
				sink += p.m.ScorePrepared(p.subs[i], pes[t])
			}
		}
	})

	// Two passes through the batch pipeline: the first fills the recycled
	// context's interners and row memos, the second is the steady state.
	var prepIn, arena time.Duration
	var computed, reused uint64
	chunk := make([]*matcher.PreparedSubscription, 0, scoreChunk)
	var out []float64
	prepRoot, prepDone := p.group("matcher.prepare_event_in_batch")
	defer prepDone()
	arenaRoot, arenaDone := p.group("matcher.score_arena")
	defer arenaDone()
	for pass := 0; pass < 2; pass++ {
		prepIn, arena, computed, reused = 0, 0, 0, 0
		for lo := 0; lo < n; lo += p.sp.Batch {
			eb := p.m.NewEventBatch()
			ar := p.m.NewBatchArena(eb)
			for t := lo; t < min(lo+p.sp.Batch, n); t++ {
				var pe *matcher.PreparedEvent
				prepIn += p.call(prepRoot, "matcher.prepare_event_in_batch", func() {
					pe = p.m.PrepareEventInBatch(eb, p.in.Events[t])
				})
				arena += p.call(arenaRoot, "matcher.score_arena", func() {
					c := p.cands[t]
					for len(c) > 0 {
						k := min(len(c), scoreChunk)
						chunk = chunk[:0]
						for _, i := range c[:k] {
							chunk = append(chunk, p.subs[i])
						}
						out = p.m.ScoreBatchInArena(ar, chunk, pe, out[:0])
						sink += out[0]
						c = c[k:]
					}
				})
			}
			_, _, rc, rr := p.m.FinishEventBatch(eb)
			computed += rc
			reused += rr
		}
	}
	_ = sink

	p.set("matcher.prepare_sub_us", us(prepSub), "us", len(p.subs))
	p.set("matcher.prepare_event_us", us(prepEv), "us", n)
	p.set("matcher.prepare_event_in_batch_us", us(prepIn)/float64(n), "us", n)
	p.set("matcher.score_prepared_ns_per_pair", scalar, "ns", pairs)
	p.set("matcher.score_arena_ns_per_pair", float64(arena)/float64(max(pairs, 1)), "ns", pairs)
	p.set("matcher.rows_reuse_ratio", float64(reused)/float64(max(computed+reused, 1)), "ratio", int(computed+reused))
}
