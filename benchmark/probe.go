package main

import (
	"time"

	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/subindex"
)

// probes times calls into each leaf layer's public functions, in process,
// over the same generated inputs the daemon was driven with. They say what
// a layer costs in isolation, which the end-to-end run cannot; each layer's
// probes live in probe_<layer>.go.
//
// They call only functions that survive ROADMAP's "one publish pipeline,
// one matcher seam" item: never broker.New, the Prepared* adapters or
// matcher.ScoreBatch.
type probes struct {
	sp        spec
	in        inputs
	space     *semantics.Space
	indexPath string
	dir       string // scratch directory (WAL files)
	rec       *recorder
	tr        *tracer
	out       map[string]metric

	// Shared between layers: the matcher probe scores the candidate pairs
	// the subindex probe enumerates, as the daemon does.
	m     *matcher.Matcher
	subs  []*matcher.PreparedSubscription
	six   *subindex.Index[int32]
	cands [][]int32 // per template
}

// call times one call into a layer under a span of its own. For calls of a
// microsecond or more.
func (p *probes) call(parent int32, name string, fn func()) time.Duration {
	t0 := p.rec.now()
	fn()
	t1 := p.rec.now()
	p.tr.add(parent, name, "", t0, t1)
	return time.Duration(t1 - t0)
}

// group opens the root span a run of calls hangs under; done closes it.
func (p *probes) group(name string) (root int32, done func()) {
	root = p.tr.begin(0, "probe."+name, "", p.rec.now())
	return root, func() { p.tr.end(root, p.rec.now()) }
}

// each makes n calls, one span per call, and returns the mean per call.
func (p *probes) each(name string, n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	root, done := p.group(name)
	defer done()
	var sum time.Duration
	for i := range n {
		sum += p.call(root, name, func() { fn(i) })
	}
	return sum / time.Duration(n)
}

// loop times fn, which makes calls calls into a nanosecond-scale kernel,
// under one span and returns the mean nanoseconds per call: two clock reads
// would cost more than such a call.
func (p *probes) loop(name string, calls int, fn func()) (nsPerCall float64) {
	t0 := p.rec.now()
	fn()
	t1 := p.rec.now()
	p.tr.add(0, "probe."+name, "", t0, t1)
	if calls == 0 {
		return 0
	}
	return float64(t1-t0) / float64(calls)
}

func (p *probes) set(name string, v float64, unit string, samples int) {
	p.out[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// all runs every layer's probes; the order matters only where a later layer
// reuses an earlier one's structures.
func (p *probes) all() error {
	p.m = matcher.New(p.space)
	p.subindex()
	p.matcher()
	p.semantics()
	p.kernels()
	p.wire()
	if err := p.index(); err != nil {
		return err
	}
	return p.wal()
}
