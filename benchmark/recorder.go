package main

import (
	"strconv"
	"sync"
	"time"
)

// evRec is one published event as the harness tracks it.
type evRec struct {
	tmpl     int32
	gated    bool // holds a delivery-window token until complete
	done     bool
	intended int64 // ns: when it was due to be sent
	sent     int64 // ns: when the publish call started
	span     int32
	got      []int32 // population indices that received it, as they arrive
}

// recorder is the subscriber side's bookkeeping: every delivery the client
// receives lands here, is stamped, and is checked against the oracle when
// its phase ends. Event IDs are "e<seq>", seq indexing events.
type recorder struct {
	base   time.Time
	tr     *tracer
	tokens chan struct{} // delivery window: one token per incomplete gated event
	idle   chan struct{} // signalled when the last pending event completes

	mu          sync.Mutex
	expected    [][]int32
	events      []evRec
	deliveries  []sample // at = receipt, dur = receipt - intended
	completions []sample // at = last expected delivery, dur = that - intended (0: nobody was to receive it)
	pending     int      // events registered and not yet complete
	stray       int      // deliveries naming no event of this run
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{base: time.Now(), tr: tr, tokens: make(chan struct{}, deliveryWindow), idle: make(chan struct{}, 1)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

func eventID(seq int) string { return "e" + strconv.Itoa(seq) }

// register enters an event about to be published and returns its sequence
// number and span. An event nobody should receive is complete at once.
func (r *recorder) register(tmpl int, intended, sent int64, gated bool, parent int32) (seq int, span int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq = len(r.events)
	e := evRec{tmpl: int32(tmpl), gated: gated, intended: intended, sent: sent}
	e.span = r.tr.begin(parent, "event", eventID(seq), sent)
	if len(r.expected[tmpl]) == 0 {
		e.done = true
		r.completions = append(r.completions, sample{at: sent})
	} else {
		r.pending++
	}
	r.events = append(r.events, e)
	return seq, e.span
}

// onDelivery records one received delivery for population index sub.
func (r *recorder) onDelivery(sub int32, id string) {
	now := r.now()
	seq := -1
	if len(id) > 1 && id[0] == 'e' {
		if n, err := strconv.Atoi(id[1:]); err == nil {
			seq = n
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq < 0 || seq >= len(r.events) {
		r.stray++
		return
	}
	e := &r.events[seq]
	e.got = append(e.got, sub)
	r.deliveries = append(r.deliveries, sample{at: now, dur: now - e.intended})
	r.tr.add(e.span, "deliver", id, e.sent, now)
	if !e.done && len(e.got) >= len(r.expected[e.tmpl]) {
		e.done = true
		if r.pending--; r.pending == 0 {
			select {
			case r.idle <- struct{}{}:
			default:
			}
		}
		r.completions = append(r.completions, sample{at: now, dur: now - e.intended})
		r.tr.end(e.span, now)
		if e.gated {
			<-r.tokens
		}
	}
}

// acquire takes n delivery-window tokens, or reports false when the window
// stays full for longer than wait (a delivery was lost).
func (r *recorder) acquire(n int, wait time.Duration) bool {
	t := time.NewTimer(wait)
	defer t.Stop()
	for range n {
		select {
		case r.tokens <- struct{}{}:
		case <-t.C:
			return false
		}
	}
	return true
}

// waitIdle blocks until every registered event is complete, or reports
// false when that takes longer than wait.
func (r *recorder) waitIdle(wait time.Duration) bool {
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		r.mu.Lock()
		p := r.pending
		r.mu.Unlock()
		if p == 0 {
			return true
		}
		select {
		case <-r.idle:
		case <-t.C:
			return false
		}
	}
}

// quiesce waits until every registered event is complete, or wait elapses.
func (r *recorder) quiesce(wait time.Duration) {
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		p := r.pending
		r.mu.Unlock()
		if p == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// cut ends a phase: it verifies every event registered since the previous
// cut against the oracle and hands back the phase's samples.
func (r *recorder) cut(from int) (mism mismatch, expectedDeliveries int, deliveries, completions []sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := from; i < len(r.events); i++ {
		e := &r.events[i]
		exp := r.expected[e.tmpl]
		expectedDeliveries += len(exp)
		mism.add(compareSets(exp, e.got))
		e.got = nil // verified: keep the live heap, and so the harness's GC, small
		if !e.done {
			// Give the window token back so one lost delivery fails the
			// phase it happened in, not every phase after it.
			e.done = true
			r.pending--
			if e.gated {
				<-r.tokens
			}
		}
	}
	mism.Unexpected += r.stray
	r.stray = 0
	deliveries, completions = r.deliveries, r.completions
	r.deliveries, r.completions = nil, nil
	return
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
