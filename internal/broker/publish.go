package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
)

// batchChunkSize is the unit of scoring work an Engine worker pulls off the
// cursor: large enough that the per-call cost of an arena sweep amortizes
// across many subscriptions, small enough that the worker pool still
// load-balances a skewed candidate set. A plain Matcher has nothing to
// amortize across a chunk, so its unit is one Score call (Broker.chunk).
const batchChunkSize = 256

// batchWindowCands bounds how many candidate pointers one publish window
// stages at once: large enough that most windows hold many events (so
// enumeration and chunking amortize), small enough that the staging buffer
// (8 bytes per candidate) stays cache-resident instead of growing to
// events × candidates pointers the GC must scan per batch.
const batchWindowCands = 32 * 1024

// batchHit is one above-threshold (subscriber, event) match produced by a
// scoring worker, buffered so deliveries can be coalesced per subscriber.
type batchHit struct {
	s     *Subscriber
	ei    int32 // index into the batch's event slice
	score float64
}

// chunkRef is one unit of scoring work: a contiguous candidate range of
// one event.
type chunkRef struct {
	ei     int32
	lo, hi int32
}

// scoreScratch is one Engine worker's staging for an arena sweep.
type scoreScratch struct {
	subs   []*matcher.PreparedSubscription
	scores []float64
}

// pubBatchBuf is the whole state of one publish. Everything a publish
// touches — prepared events, the flat candidate arena, chunk descriptors,
// per-worker scratch and hit lists, the per-subscriber grouping chains —
// lives here and is recycled through the broker's free list, so a warm
// publish allocates nothing. The scoring workers run as a method on this
// buffer rather than a closure for the same reason.
type pubBatchBuf struct {
	b        *Broker
	one      [1]*event.Event // backing store of a serial Publish's batch of one
	events   []*event.Event
	ctx      *matcher.EventBatch      // batch prepare context; nil without an Engine
	pes      []*matcher.PreparedEvent // prepared events, index-aligned with events
	flat     []*Subscriber            // window candidate buffer (index path) or snapshot (scan path)
	perEvent [][]*Subscriber          // per-event candidate views of the current window
	ends     []int
	chunks   []chunkRef
	winStart int32 // global index of the current window's first event
	cursor   atomic.Int64
	wg       sync.WaitGroup        // helper workers of the current window (a field: a local would escape per window)
	arenas   []*matcher.BatchArena // per-worker scoring arenas
	scratch  []scoreScratch        // per-worker arena-sweep staging
	hits     [][]batchHit          // per-worker hit lists
	merged   []batchHit
	head     map[*Subscriber]int32 // subscriber -> last hit index in merged
	prev     []int32               // hit index -> previous hit of same subscriber
	group    []batchHit            // per-subscriber delivery scratch
	add      func(*Subscriber)     // enumeration sink, bound to flat once
}

func newPubBatchBuf() *pubBatchBuf {
	buf := &pubBatchBuf{head: make(map[*Subscriber]int32)}
	buf.add = func(s *Subscriber) { buf.flat = append(buf.flat, s) }
	return buf
}

// pubBufLimit bounds each broker's free list of publish buffers. The
// buffers are few but large (hit lists and grouping chains scale with
// matches per batch), which is exactly the population sync.Pool serves
// worst: every GC cycle empties the pool, and regrowing tens of megabytes
// of scratch per batch is itself what forces the next GC cycle. A small
// broker-owned free list keeps the scratch alive across collections;
// buffers beyond the limit (briefly needed only when more publishes are in
// flight than the list holds) still fall back to the allocator.
const pubBufLimit = 4

// acquirePubBuf pops a warm publish buffer off the broker's free list, or
// builds a fresh one when the list is empty.
func (b *Broker) acquirePubBuf() *pubBatchBuf {
	select {
	case buf := <-b.pubBufs:
		return buf
	default:
		return newPubBatchBuf()
	}
}

// finishContext returns the batch context to the matcher and credits its
// amortization counters — also for a publish that is then rejected: the
// interner did that work.
func (buf *pubBatchBuf) finishContext() {
	if buf.ctx == nil {
		return
	}
	b := buf.b
	ti, tr, rc, rr := b.engine.FinishEventBatch(buf.ctx)
	buf.ctx = nil
	b.batchTermsInterned.Add(ti)
	b.batchTermsReused.Add(tr)
	b.batchRowsComputed.Add(rc)
	b.batchRowsReused.Add(rr)
}

// release drops every pointer the publish held and returns the buffer to
// its broker's free list; capacities (and the grouping map's buckets) are
// kept warm. It is the single exit of every publish, admitted or not.
func (buf *pubBatchBuf) release() {
	buf.finishContext()
	b := buf.b
	buf.b = nil
	buf.one[0] = nil
	buf.events = nil
	clear(buf.pes)
	buf.pes = buf.pes[:0]
	clear(buf.flat)
	buf.flat = buf.flat[:0]
	clear(buf.perEvent)
	buf.perEvent = buf.perEvent[:0]
	buf.ends = buf.ends[:0]
	buf.chunks = buf.chunks[:0]
	clear(buf.arenas)
	buf.arenas = buf.arenas[:0]
	for i := range buf.hits {
		clear(buf.hits[i])
		buf.hits[i] = buf.hits[i][:0]
		sc := &buf.scratch[i]
		clear(sc.subs[:cap(sc.subs)]) // stale tails too: they pin prepared subscriptions
		sc.subs = sc.subs[:0]
	}
	clear(buf.merged)
	buf.merged = buf.merged[:0]
	clear(buf.head)
	buf.prev = buf.prev[:0]
	clear(buf.group)
	buf.group = buf.group[:0]
	select {
	case b.pubBufs <- buf:
	default: // free list full; let the GC have this one
	}
}

// validatePrepared checks the event-model invariants from a prepared
// event's already canonicalized tuple terms — the Engine path's
// allocation-free equivalent of Event.Validate (tuple counts are small, so
// the quadratic duplicate scan beats a map).
func validatePrepared(pe *matcher.PreparedEvent) error {
	e := pe.Event()
	attrs, values := pe.CanonicalTuples()
	if len(attrs) == 0 {
		return event.ErrNoTuples
	}
	for i, a := range attrs {
		if a == "" || values[i] == "" {
			return fmt.Errorf("%w: %q", event.ErrEmptyTerm, e.Tuples[i])
		}
		for j := 0; j < i; j++ {
			if attrs[j] == a {
				return fmt.Errorf("%w: %q", event.ErrDuplicateAttr, e.Tuples[i].Attr)
			}
		}
	}
	return nil
}

// prepare validates every event of the publish and, with an Engine,
// prepares it in the same pass: the batch context's interner yields the
// canonical terms validation needs, so no term is canonicalized twice.
func (buf *pubBatchBuf) prepare() error {
	eng := buf.b.engine
	if eng != nil {
		buf.ctx = eng.NewEventBatch()
	}
	for _, e := range buf.events {
		if e == nil {
			return ErrNilEvent
		}
		var err error
		if eng != nil {
			pe := eng.PrepareEventInBatch(buf.ctx, e)
			buf.pes = append(buf.pes, pe)
			err = validatePrepared(pe)
		} else {
			err = e.Validate()
		}
		if err != nil {
			return fmt.Errorf("broker: publish: %w", err)
		}
	}
	return nil
}

// admit is admission control plus everything done under the broker lock:
// one decision for the whole batch (all-or-nothing), the replay-ring
// append, and — for full-scan matchers — the one subscription snapshot the
// batch shares. It reports whether the broker has no subscribers. The
// caller has already incremented inflight: the count rises before the
// draining check so Drain's wait-for-zero cannot miss a racing publish.
func (b *Broker) admit(buf *pubBatchBuf) (empty bool, err error) {
	if b.draining.Load() {
		return false, ErrDraining
	}
	if w := b.cfg.shedWatermark; w > 0 && b.sem != nil &&
		len(b.sem) == cap(b.sem) && b.inflight.Load() > int64(w) {
		// The helper budget is exhausted and more publishes are in flight
		// than the watermark allows: shed this one instead of queueing onto
		// a saturated matcher. Counted per event, surfaced, never silent.
		b.shed.Add(uint64(len(buf.events)))
		return false, ErrOverloaded
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, ErrClosed
	}
	if b.cfg.replaySize > 0 {
		b.replay = append(b.replay, buf.events...)
		if len(b.replay) > b.cfg.replaySize {
			b.replay = b.replay[len(b.replay)-b.cfg.replaySize:]
		}
	}
	if b.index == nil {
		for _, s := range b.subs {
			buf.flat = append(buf.flat, s)
		}
	}
	return len(b.subs) == 0, nil
}

// Publish matches the event against every subscription and enqueues
// deliveries. It is PublishBatch of one event, through the same code.
func (b *Broker) Publish(e *event.Event) error {
	buf := b.acquirePubBuf()
	buf.one[0] = e // the batch of one lives in the buffer, so a warm Publish allocates nothing
	return b.publish(buf, buf.one[:])
}

// PublishBatch publishes a batch of events through one amortized pipeline
// pass: every distinct term is canonicalized once, candidate enumeration
// shares its scratch across the batch, scoring workers (WithMatchParallelism;
// the publishing goroutine always participates) pull (event, chunk) work
// items from one cursor with similarity-row memos that persist across the
// batch, and deliveries are coalesced so each matched subscriber's queue
// lock is taken once per batch instead of once per match. Delivery sets —
// which subscriber receives which events with which scores, and the
// per-subscriber event order — are those of a full scan scoring every
// (event, subscription) pair through Matcher.Score in publish order; see
// DESIGN.md "Publish pipeline" for the argument and for what is per batch
// rather than per event (stage histograms, one admission timestamp per
// subscriber group, one trace-sampling unit).
//
// Admission is all-or-nothing: the batch is validated up front and either
// every event is admitted (nil return) or none is. It returns only after
// every match decision and delivery of the batch is done, and it never
// blocks on slow consumers: when a subscriber's queue is full, the oldest
// queued delivery is dropped (counted in Stats.Dropped).
func (b *Broker) PublishBatch(events []*event.Event) error {
	if len(events) == 0 {
		return nil
	}
	return b.publish(b.acquirePubBuf(), events)
}

// publish is the one publish pipeline: prepare → admit → windowed
// enumerate/score → coalesced delivery.
func (b *Broker) publish(buf *pubBatchBuf, events []*event.Event) error {
	t0 := b.clock.Now()
	n := len(events)
	buf.b = b
	buf.events = events
	if err := buf.prepare(); err != nil {
		buf.release()
		return err
	}
	tIngest := b.clock.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	empty, err := b.admit(buf)
	if err != nil {
		buf.release()
		return err
	}
	b.published.Add(uint64(n))
	b.batches.Add(1)
	b.batchSizeHist.Observe(float64(n))

	// The whole batch is one sampling unit, keyed by its first member. The
	// member list is built only for a sampled multi-event trace, so an
	// unsampled publish does no trace allocation.
	trace := b.tracer.StartAt(events[0].ID, t0)
	if trace != nil && n > 1 {
		ids := make([]string, n)
		for i, e := range events {
			ids[i] = e.ID
		}
		trace.SetEvents(ids)
	}
	tEnum := b.clock.Now()
	b.compileHist.ObserveDuration(tIngest.Sub(t0))
	trace.AddSpanDuration("compile", t0, tIngest.Sub(t0))
	trace.AddSpanDuration("ingest", tIngest, tEnum.Sub(tIngest))

	// Candidate enumeration and scoring, interleaved over windows of
	// consecutive events. A whole-batch candidate arena at the 100k tier
	// holds millions of *Subscriber pointers — tens of megabytes the GC
	// must scan and the caches cannot hold — so events are staged in
	// windows whose candidate sets fit batchWindowCands, reusing one small
	// flat buffer. Everything that amortizes — the batch context, interned
	// terms, per-worker arenas and their row memos, hit lists, delivery
	// coalescing — still spans the whole batch; only the staging of
	// candidate pointers is windowed. Within a window, workers pull
	// (event, chunk) items off one cursor with no per-event barrier.
	nw := b.cfg.parallelism
	for len(buf.hits) < nw {
		buf.hits = append(buf.hits, nil)
		buf.scratch = append(buf.scratch, scoreScratch{})
	}
	if b.engine != nil {
		// Arenas must be drawn on the context-owning goroutine, before any
		// workers start; they persist across every window of the batch.
		for w := 0; w < nw; w++ {
			buf.arenas = append(buf.arenas, b.engine.NewBatchArena(buf.ctx))
		}
	}
	fullScan := b.index == nil || empty
	var enumDur, scoreDur time.Duration
	totalCands := 0
	t := tEnum
	for lo := 0; lo < n; {
		perEvent := buf.perEvent[:0]
		ends := buf.ends[:0]
		hi := lo
		if !fullScan {
			// Candidate set from the pruning index: subscriptions whose
			// exact predicates cannot all be satisfied by an event's tuples
			// are skipped before any semantic measure runs.
			buf.flat = buf.flat[:0] // window staging buffer, reused
			for hi < n && (hi == lo || len(buf.flat) < batchWindowCands) {
				start := len(buf.flat)
				attrs, values := buf.pes[hi].CanonicalTuples()
				_, pruned := b.index.CandidatesPrepared(attrs, values, buf.add)
				b.pruned.Add(uint64(pruned))
				ends = append(ends, len(buf.flat))
				b.candHist.Observe(float64(len(buf.flat) - start))
				hi++
			}
			// Views into the buffer are derived only after every append of
			// the window, since growth moves it.
			prev := 0
			for _, end := range ends {
				perEvent = append(perEvent, buf.flat[prev:end])
				prev = end
			}
			totalCands += len(buf.flat)
		} else {
			// Full-scan matchers share one subscription snapshot (already
			// staged in flat) across every event; the window only bounds how
			// many events' chunks are in flight at once.
			for hi < n && (hi == lo || (hi-lo)*len(buf.flat) < batchWindowCands) {
				perEvent = append(perEvent, buf.flat)
				b.candHist.Observe(float64(len(buf.flat)))
				hi++
			}
			totalCands += len(buf.flat) * (hi - lo)
		}
		buf.perEvent = perEvent
		buf.ends = ends
		tScore := b.clock.Now()
		enumDur += tScore.Sub(t)

		chunks := buf.chunks[:0]
		for i := range perEvent {
			m := len(perEvent[i])
			for clo := 0; clo < m; clo += b.chunk {
				chunks = append(chunks, chunkRef{ei: int32(lo + i), lo: int32(clo), hi: int32(min(clo+b.chunk, m))})
			}
		}
		buf.chunks = chunks
		buf.winStart = int32(lo)
		buf.cursor.Store(0)
	spawn:
		for w := 1; w < min(nw, len(chunks)); w++ {
			select {
			case b.sem <- struct{}{}:
				buf.wg.Add(1)
				go func(wid int) {
					defer buf.wg.Done()
					defer func() { <-b.sem }()
					buf.work(wid)
				}(w)
			default:
				// Helper budget exhausted by concurrent publishes: the
				// publisher goroutine absorbs the remainder.
				break spawn
			}
		}
		buf.work(0)
		buf.wg.Wait()
		t = b.clock.Now()
		scoreDur += t.Sub(tScore)
		lo = hi
	}
	b.scanned.Add(uint64(totalCands))
	b.enumerateHist.ObserveDuration(enumDur)
	b.scoreHist.ObserveDuration(scoreDur)
	tDeliver := t

	// Coalesced delivery: bucket the hits per subscriber (chained through
	// prev/head, no per-subscriber allocation), restore per-subscriber
	// event order, and take each subscriber's queue lock exactly once.
	merged := buf.merged[:0]
	for w := 0; w < nw; w++ {
		merged = append(merged, buf.hits[w]...)
	}
	buf.merged = merged
	b.matched.Add(uint64(len(merged)))
	prevIdx := buf.prev[:0]
	for i := range merged {
		if j, ok := buf.head[merged[i].s]; ok {
			prevIdx = append(prevIdx, j)
		} else {
			prevIdx = append(prevIdx, -1)
		}
		buf.head[merged[i].s] = int32(i)
	}
	buf.prev = prevIdx
	for s, last := range buf.head {
		g := buf.group[:0]
		for i := last; i >= 0; i = prevIdx[i] {
			g = append(g, merged[i])
		}
		sortHitsByEvent(g)
		buf.group = g
		b.offerBatch(s, events, g)
	}

	buf.finishContext()
	end := b.clock.Now()
	b.publishHist.ObserveDuration(end.Sub(t0))
	b.deliverySLO.ObserveN(end.Sub(t0), n)
	if trace != nil {
		// Enumeration and scoring interleave per window; the spans carry the
		// aggregate durations laid end to end from the enumeration start.
		trace.AddSpanDuration("enumerate", tEnum, enumDur)
		trace.AddSpanDuration("score", tEnum.Add(enumDur), scoreDur)
		trace.AddSpanDuration("deliver", tDeliver, end.Sub(tDeliver))
		// Per-event child spans of a multi-event batch: each member shares
		// the batch's amortized admission-to-delivery latency. Capped so a
		// huge batch cannot bloat the trace ring; the Events list still
		// names every member.
		const maxChildSpans = 64
		for i := 0; n > 1 && i < min(n, maxChildSpans); i++ {
			trace.AddSpanDuration("event:"+events[i].ID, t0, end.Sub(t0))
		}
		trace.Finish()
	}
	buf.release()
	return nil
}

// work is one scoring worker: it pulls chunk descriptors off the shared
// cursor and appends above-threshold scores to its private hit list. It is
// called once per window — hit lists accumulate across windows and are
// only reset when the buffer is released. With an Engine the worker sweeps
// each chunk through its own arena, whose row memo persists across every
// chunk it touches; a plain Matcher is scored pair by pair through Score.
func (buf *pubBatchBuf) work(wid int) {
	b := buf.b
	hits := buf.hits[wid]
	threshold := b.cfg.threshold
	for {
		c := int(buf.cursor.Add(1)) - 1
		if c >= len(buf.chunks) {
			break
		}
		ch := buf.chunks[c]
		targets := buf.perEvent[ch.ei-buf.winStart][ch.lo:ch.hi]
		if b.engine != nil {
			sc := &buf.scratch[wid]
			subs := sc.subs[:0]
			for _, s := range targets {
				subs = append(subs, s.prepared)
			}
			scores := b.engine.ScoreBatchInArena(buf.arenas[wid], subs, buf.pes[ch.ei], sc.scores[:0])
			for k, s := range targets {
				if v := scores[k]; v >= threshold && v > 0 {
					hits = append(hits, batchHit{s: s, ei: ch.ei, score: v})
				}
			}
			sc.subs, sc.scores = subs, scores
		} else {
			e := buf.events[ch.ei]
			for _, s := range targets {
				if v := b.matcher.Score(s.sub, e); v >= threshold && v > 0 {
					hits = append(hits, batchHit{s: s, ei: ch.ei, score: v})
				}
			}
		}
	}
	buf.hits[wid] = hits
}

// sortHitsByEvent restores ascending event order within one subscriber's
// hit group (insertion sort: groups are at most batch-sized, event indexes
// distinct, and the hot path must not allocate).
func sortHitsByEvent(g []batchHit) {
	for i := 1; i < len(g); i++ {
		h := g[i]
		j := i - 1
		for j >= 0 && g[j].ei > h.ei {
			g[j+1] = g[j]
			j--
		}
		g[j+1] = h
	}
}

// offerBatch enqueues one subscriber's deliveries of a publish under a
// single queue-lock acquisition. All deliveries of the group share one
// admission timestamp, and the deliver histogram observes the group
// handoff — which for a batch of one is the single delivery.
func (b *Broker) offerBatch(s *Subscriber, events []*event.Event, hits []batchHit) {
	t0 := b.clock.Now()
	var delivered, dropped uint64
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for _, h := range hits {
		ok, d := s.enqueue(Delivery{Event: events[h.ei], SubscriptionID: s.id, Score: h.score, At: t0})
		if ok {
			delivered++
		}
		dropped += d
	}
	notify := s.notify
	s.mu.Unlock()
	b.delivered.Add(delivered)
	if dropped > 0 {
		b.dropped.Add(dropped)
	}
	if delivered > 0 && notify != nil {
		notify()
	}
	b.deliverHist.ObserveDuration(b.clock.Now().Sub(t0))
}
