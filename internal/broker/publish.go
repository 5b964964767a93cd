package broker

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/telemetry"
)

// stage is one step of the publish chain, in chain order. The runner
// (publish) reads the clock once at each stage boundary and charges the
// time since the last one to the stage that just ended. Enumerate and score
// are one match phase, run per event by the scoring workers: each worker
// times its own two steps, and the runner splits the phase's one lap
// between them in the ratio of the workers' summed times (match).
type stage int

const (
	stCompile   stage = iota // prepare: validate and prepare every event
	stIngest                 // admit: admission control, replay ring, snapshot
	stEnumerate              // candidates from the pruning index or the snapshot
	stScore                  // every candidate pair through the matcher
	stDeliver                // gate and enqueue, one lock per subscriber
	numStages
)

// stages names each stage's span; a stage with help also has a histogram,
// thematicep_broker_<span>_seconds.
var stages = [numStages]struct{ span, help string }{
	{"compile", "Event preparation latency (canonicalization and theme compile)."},
	{"ingest", ""},
	{"enumerate", "Candidate enumeration latency per publish (pruning-index lookups or full-scan setup; the match phase's wall time in the share its workers spent enumerating)."},
	{"score", "Candidate scoring latency per publish (every candidate pair through the matcher; the match phase's wall time in the share its workers spent scoring)."},
	{"deliver", "Delivery stage latency per publish (every subscriber group's gate and queue handoff)."},
}

// counter indexes the accounting table: every cumulative counter the broker
// keeps, each a (stage, outcome) term. The order is the load order of a
// snapshot, downstream terms first; a publish adds its terms in reverse
// order at its one exit. So a snapshot racing a publish may hold an
// upstream term without its downstream terms, never the reverse.
type counter int

const (
	cDropped counter = iota
	cWriteOversize
	cDelivered
	cDeliverGate
	cDeliverClosed
	cReplayMatched
	cMatched
	cScoreZero
	cScoreBelow
	cScoreBound
	cScanned
	cPruned
	cPublished
	cShed
	cAdmitDraining
	cAdmitClosed
	cAdmitInvalid
	cEventsIn
	cBatches
	cTermsInterned
	cTermsReused
	cRowsComputed
	cRowsReused
	numCounters
)

const (
	stoppedFamily = "thematicep_broker_stopped_total"
	stoppedHelp   = "Events (admit) or event-subscription pairs (score, deliver, write) the publish chain stopped, by stage and reason."
)

// accounting names each counter's exposition series; a row with a reason
// is one series of stoppedFamily.
var accounting = [numCounters]struct{ family, help, stage, reason string }{
	{"thematicep_broker_dropped_total", "Deliveries dropped by the overflow policy.", "", ""},
	{stoppedFamily, stoppedHelp, "write", "oversize"},
	{"thematicep_broker_delivered_total", "Deliveries enqueued to subscribers.", "", ""},
	{stoppedFamily, stoppedHelp, "deliver", "gate_refused"},
	{stoppedFamily, stoppedHelp, "deliver", "closed"},
	{"thematicep_broker_replay_matched_total", "Replay-backlog matches made at Subscribe.", "", ""},
	{"thematicep_broker_matched_total", "Event-subscription matches.", "", ""},
	{stoppedFamily, stoppedHelp, "score", "zero"},
	{stoppedFamily, stoppedHelp, "score", "below_threshold"},
	{stoppedFamily, stoppedHelp, "score", "bound"},
	{"thematicep_broker_scanned_total", "Event-subscription pairs scored by the matcher.", "", ""},
	{"thematicep_broker_pruned_total", "Pairs skipped by the pruning index (provably score 0).", "", ""},
	{"thematicep_broker_published_total", "Events accepted by Publish.", "", ""},
	{"thematicep_broker_shed_total", "Publishes rejected by load shedding (saturated match pipeline).", "", ""},
	{stoppedFamily, stoppedHelp, "admit", "draining"},
	{stoppedFamily, stoppedHelp, "admit", "closed"},
	{stoppedFamily, stoppedHelp, "admit", "invalid"},
	{"thematicep_broker_events_in_total", "Events handed to Publish or PublishBatch, admitted or refused.", "", ""},
	{"thematicep_broker_batches_total", "Publish calls admitted (each is one batch; a serial Publish is a batch of one).", "", ""},
	{"thematicep_broker_batch_terms_interned_total", "Raw event terms the semantic space's term memo missed, canonicalized fresh.", "", ""},
	{"thematicep_broker_batch_terms_reused_total", "Raw event terms the semantic space's term memo served.", "", ""},
	{"thematicep_broker_batch_rows_computed_total", "Similarity rows opened (a memo miss stores only the row's mask; the row is opened when a candidate that passes its mask check and its score bound reads it, an attribute row filled whole, a value row's cells filled on demand where the attribute cell can carry a match).", "", ""},
	{"thematicep_broker_batch_rows_reused_total", "Similarity row requests (mask or row) served from the arena memos.", "", ""},
}

// identities are the conservation laws of the accounting table: on a
// quiescent broker each side sums to the other, and under traffic the load
// order lets only the upstream side run ahead. Two terms stand outside
// them: dropped (drop-oldest evicts a delivery already counted) and
// stopped{write} (a delivery the connection's writer could not frame).
var identities = [...]struct {
	name     string
	up, down []counter
}{
	{"events in = published + shed + stopped{admit}",
		[]counter{cEventsIn}, []counter{cPublished, cShed, cAdmitDraining, cAdmitClosed, cAdmitInvalid}},
	{"scanned = stopped{score} + matched",
		[]counter{cScanned}, []counter{cScoreZero, cScoreBelow, cScoreBound, cMatched}},
	{"matched + replay = delivered + stopped{deliver}",
		[]counter{cMatched, cReplayMatched}, []counter{cDelivered, cDeliverGate, cDeliverClosed}},
}

// Balance is one accounting identity evaluated over a scrape.
type Balance struct {
	Identity string
	Up, Down float64 // the upstream (left) and downstream (right) sides
}

// Conservation evaluates the accounting identities over the families of one
// scrape, or of a cluster merge: every term is a sum, so the identities hold
// for a sum of brokers as for each.
func Conservation(fams []*telemetry.Family) []Balance {
	sum := func(cs []counter) (v float64) {
		for _, c := range cs {
			row := accounting[c]
			for _, f := range fams {
				for _, s := range f.Samples {
					if f.Name == row.family && s.Labels["stage"] == row.stage && s.Labels["reason"] == row.reason {
						v += s.Value
					}
				}
			}
		}
		return v
	}
	out := make([]Balance, len(identities))
	for i, id := range identities {
		out[i] = Balance{id.name, sum(id.up), sum(id.down)}
	}
	return out
}

// batchHit is one above-threshold (subscriber, event) match produced by a
// scoring worker, buffered so deliveries can be coalesced per subscriber.
type batchHit struct {
	s     *Subscriber
	ei    int32 // index into the batch's event slice
	score float64
}

// scoreScratch is one scoring worker's state: the candidates of the event
// it holds, their sweep staging, its accounting terms and the time it spent
// enumerating and scoring, folded into the publish once its workers are
// done.
type scoreScratch struct {
	cands        []*Subscriber     // the current event's candidates (index path)
	add          func(*Subscriber) // enumeration sink, bound to cands once
	subs         []*matcher.PreparedSubscription
	scores       []float64
	tally        [numCounters]uint64
	enum, scored time.Duration
}

// pubBatchBuf is the whole state of one publish. Everything a publish
// touches — prepared events, the full-scan snapshot, per-worker scratch,
// per-event hit lists, the per-subscriber grouping chains, the
// stage clocks and the accounting tally — lives here and is recycled
// through the broker's free list, so a warm publish allocates nothing. The
// scoring workers run as a method on this buffer rather than a closure for
// the same reason.
type pubBatchBuf struct {
	b        *Broker
	one      [1]*event.Event // backing store of a serial Publish's batch of one
	events   []*event.Event
	ctx      *matcher.EventBatch      // batch prepare context; nil without an Engine
	pes      []*matcher.PreparedEvent // prepared events, index-aligned with events
	fullScan bool                     // score the snapshot instead of asking the index
	regCut   uint64                   // the broker's registration count at admission
	snapshot []*Subscriber            // the subscription snapshot every event of a full scan shares
	cursor   atomic.Int64             // next event a scoring worker takes
	wg       sync.WaitGroup           // helper workers (a field: a local would escape per publish)
	arenas   []*matcher.BatchArena    // per-worker scoring arenas
	scratch  []scoreScratch           // per-worker candidates, staging and tallies
	hits     [][]batchHit             // per-event hit lists, written by the event's one worker
	merged   []batchHit               // every hit of the publish, in event order
	head     map[*Subscriber]int32    // subscriber -> last hit index in merged
	prev     []int32                  // hit index -> previous hit of same subscriber
	group    []batchHit               // per-subscriber delivery scratch

	start, mark time.Time                // the publish's first clock read and its latest stage boundary
	dur         [numStages]time.Duration // time charged to each stage
	tally       [numCounters]uint64      // this publish's accounting terms
}

func newPubBatchBuf(workers int) *pubBatchBuf {
	buf := &pubBatchBuf{
		head:    make(map[*Subscriber]int32),
		scratch: make([]scoreScratch, workers),
	}
	for w := range buf.scratch {
		sc := &buf.scratch[w]
		sc.add = func(s *Subscriber) {
			if s.registeredAfter(buf.regCut) {
				// Registered after this publish was admitted: its replay
				// backlog may already hold the events, so it is not a
				// candidate here.
				sc.tally[cPruned]++
				return
			}
			sc.cands = append(sc.cands, s)
		}
	}
	return buf
}

// pubBufLimit bounds each broker's free list of publish buffers. The
// buffers are few but large (hit lists and grouping chains scale with
// matches per batch), which is exactly the population a GC-emptied pool
// serves worst: every GC cycle empties it, and regrowing tens of megabytes
// of scratch per batch is itself what forces the next GC cycle. A small
// broker-owned free list keeps the scratch alive across collections;
// buffers beyond the limit (briefly needed only when more publishes are in
// flight than the list holds) still fall back to the allocator.
const pubBufLimit = 4

// acquirePubBuf pops a warm publish buffer off the broker's free list, or
// builds a fresh one when the list is empty.
func (b *Broker) acquirePubBuf() *pubBatchBuf {
	if buf := b.pubBufs.Get(); buf != nil {
		return buf
	}
	return newPubBatchBuf(b.cfg.parallelism)
}

// release drops every pointer the publish held and returns the buffer to
// its broker's free list; capacities (and the grouping map's buckets) are
// kept warm.
func (buf *pubBatchBuf) release() {
	b := buf.b
	buf.b = nil
	buf.one[0] = nil
	buf.events = nil
	clear(buf.pes)
	buf.pes = buf.pes[:0]
	clear(buf.snapshot)
	buf.snapshot = buf.snapshot[:0]
	clear(buf.arenas)
	buf.arenas = buf.arenas[:0]
	for i := range buf.scratch {
		sc := &buf.scratch[i]
		// Stale tails too: they pin subscribers and prepared subscriptions.
		clear(sc.cands[:cap(sc.cands)])
		sc.cands = sc.cands[:0]
		clear(sc.subs[:cap(sc.subs)])
		sc.subs = sc.subs[:0]
	}
	clear(buf.merged)
	buf.merged = buf.merged[:0]
	clear(buf.head)
	buf.prev = buf.prev[:0]
	clear(buf.group)
	buf.group = buf.group[:0]
	buf.dur = [numStages]time.Duration{}
	buf.tally = [numCounters]uint64{}
	b.pubBufs.Put(buf)
}

// Publish matches the event against every subscription and enqueues
// deliveries. It is PublishBatch of one event, through the same code.
func (b *Broker) Publish(e *event.Event) error {
	buf := b.acquirePubBuf()
	buf.one[0] = e // the batch of one lives in the buffer, so a warm Publish allocates nothing
	return b.publish(buf, buf.one[:])
}

// PublishBatch publishes a batch of events through one amortized pipeline
// pass: every distinct term is canonicalized once, scoring workers
// (WithMatchParallelism; the publishing goroutine always participates) pull
// whole events from one cursor, enumerate each event's candidates and sweep
// them in one call through a scoring arena that persists across the batch,
// and deliveries are coalesced so each matched subscriber's queue lock is
// taken once per batch instead of once per match. Delivery sets — which subscriber receives which events
// with which scores, and the per-subscriber event order — are those of a
// full scan scoring every (event, subscription) pair through Matcher.Score
// in publish order; see DESIGN.md "Publish pipeline" for the argument and
// for what is per batch rather than per event (stage histograms, one
// admission timestamp, one trace-sampling unit).
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

// publish is the chain runner: compile → ingest → match (enumerate and
// score, per event on the workers) → deliver, then the one exit. A stage
// that stops the whole publish returns the reason as an error, which names
// its counter (stopRow); score and deliver stop single pairs and tally
// them. inflight covers the call from entry to exit, so once Drain has seen
// it reach zero every publish has been accounted for.
func (b *Broker) publish(buf *pubBatchBuf, events []*event.Event) error {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	buf.b, buf.events = b, events
	buf.start = b.clock.Now()
	buf.mark = buf.start
	err := buf.compile()
	if err == nil {
		buf.lap(stCompile)
		err = buf.ingest()
	}
	if err == nil {
		buf.lap(stIngest)
		buf.match()
		buf.deliver()
		buf.lap(stDeliver)
	}
	buf.exit(err)
	return err
}

// lap reads the clock at a stage boundary and charges the time since the
// last boundary to st.
func (buf *pubBatchBuf) lap(st stage) {
	now := buf.b.clock.Now()
	buf.dur[st] += now.Sub(buf.mark)
	buf.mark = now
}

// stopRow names the counter of a publish stopped with err.
func stopRow(err error) counter {
	switch {
	case errors.Is(err, ErrOverloaded):
		return cShed
	case errors.Is(err, ErrDraining):
		return cAdmitDraining
	case errors.Is(err, ErrClosed):
		return cAdmitClosed
	}
	return cAdmitInvalid
}

// exit is the one exit of every publish, admitted or refused. For an
// admitted one it observes the stage histograms and emits the spans and the
// delivery-SLO sample; for every one it adds the tallied terms to the
// accounting table, upstream first, and recycles the buffer.
func (buf *pubBatchBuf) exit(err error) {
	b := buf.b
	n := uint64(len(buf.events))
	buf.tally[cEventsIn] += n
	if err != nil {
		buf.tally[stopRow(err)] += n
	} else {
		buf.tally[cPublished] += n
		buf.tally[cBatches]++
		total := buf.mark.Sub(buf.start)
		b.publishHist.ObserveDuration(total)
		b.deliverySLO.ObserveN(total, len(buf.events))
		b.batchSizeHist.Observe(float64(n))
		for st, h := range b.stageHist {
			if h != nil {
				h.ObserveDuration(buf.dur[st])
			}
		}
		buf.trace()
	}
	if buf.ctx != nil {
		// Also for a refused publish: the interner did that work.
		t := &buf.tally
		t[cTermsInterned], t[cTermsReused], t[cRowsComputed], t[cRowsReused] = b.engine.FinishEventBatch(buf.ctx)
		buf.ctx = nil
	}
	for c := numCounters - 1; c >= 0; c-- {
		if v := buf.tally[c]; v != 0 {
			b.ctr[c].Add(v)
		}
	}
	buf.release()
}

// trace emits a sampled publish's spans: the stages laid end to end from
// its start, sealed at the publish's last stage boundary, and,
// for a multi-event batch, one child span per member sharing the batch's
// latency. The batch is one sampling unit keyed by its first member; the
// member list is built only once a trace was started, so an unsampled
// publish does no trace allocation.
func (buf *pubBatchBuf) trace() {
	events := buf.events
	tr := buf.b.tracer.StartAt(events[0].ID, buf.start)
	if tr == nil {
		return
	}
	n := len(events)
	if n > 1 {
		ids := make([]string, n)
		for i, e := range events {
			ids[i] = e.ID
		}
		tr.SetEvents(ids)
	}
	at := buf.start
	for st, d := range buf.dur {
		tr.AddSpanDuration(stages[st].span, at, d)
		at = at.Add(d)
	}
	// Capped so a huge batch cannot bloat the trace ring; the Events list
	// still names every member.
	const maxChildSpans = 64
	for i := 0; n > 1 && i < min(n, maxChildSpans); i++ {
		tr.AddSpanDuration("event:"+events[i].ID, buf.start, buf.mark.Sub(buf.start))
	}
	tr.FinishAt(buf.mark)
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

// compile validates every event of the publish and, with an Engine,
// prepares it in the same pass: the batch context's interner yields the
// canonical terms validation needs, so no term is canonicalized twice. It
// stops the publish as admit/invalid.
func (buf *pubBatchBuf) compile() error {
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

// ingest is admission control plus everything done under the broker lock:
// one decision for the whole batch (all-or-nothing), the replay-ring
// append, the registration cut and — for full-scan matchers — the one
// subscription snapshot the batch shares. A publish matches exactly the
// subscriptions registered before the cut: a later one replays the batch
// from the ring if it asks to, and enumeration skips it (the snapshot
// cannot hold it). It stops the publish as admit/draining, shed or
// admit/closed.
func (buf *pubBatchBuf) ingest() error {
	b := buf.b
	if b.draining.Load() {
		return ErrDraining
	}
	if w, n := b.cfg.shedWatermark, b.inflight.Load(); w > 0 && b.sem != nil &&
		n > int64(w) && n-1+int64(len(b.sem)) >= int64(b.cfg.parallelism) {
		// Every other publish in flight scores on its own goroutine, beside
		// the helpers they hold. When those fill the parallelism and more
		// publishes are in flight than the watermark allows, shed this one
		// instead of queueing onto a saturated matcher. Counted per event,
		// surfaced, never silent.
		return ErrOverloaded
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if b.cfg.replaySize > 0 {
		b.replay = append(b.replay, buf.events...)
		if len(b.replay) > b.cfg.replaySize {
			b.replay = b.replay[len(b.replay)-b.cfg.replaySize:]
		}
	}
	buf.regCut = b.regs
	buf.fullScan = !b.prune || b.subs.Len() == 0
	if !b.prune {
		buf.snapshot = b.subs.AppendAll(buf.snapshot)
	}
	return nil
}

// match runs the scoring workers over every event of the publish and
// charges the phase to enumerate and score. Workers pull whole events off
// one cursor; a helper is spawned per event beyond the first, up to the
// parallelism, so a batch of one runs on the publishing goroutine alone and
// its lap is that worker's last clock read. Once the workers are done their
// tallies are folded into the publish, and the lap is split between
// enumerate and score in the ratio of their summed times, so the stages
// still sum exactly to the publish's latency.
func (buf *pubBatchBuf) match() {
	b := buf.b
	n := len(buf.events)
	workers := min(b.cfg.parallelism, n)
	if buf.fullScan && len(buf.snapshot) == 0 {
		workers = 1 // no subscription: a helper would find no work
	}
	buf.cursor.Store(0)
	for len(buf.hits) < n {
		buf.hits = append(buf.hits, nil)
	}
	for b.engine != nil && len(buf.arenas) < workers {
		// Drawn on the context-owning goroutine before any worker starts.
		a := b.engine.NewBatchArena(buf.ctx)
		a.SetThreshold(b.cfg.threshold)
		buf.arenas = append(buf.arenas, a)
	}
	helpers := 0
spawn:
	for w := 1; w < workers; w++ {
		select {
		case b.sem <- struct{}{}:
			helpers++
			buf.wg.Add(1)
			go func(wid int) {
				defer buf.wg.Done()
				defer func() { <-b.sem }()
				buf.work(wid, b.clock.Now())
			}(w)
		default:
			// Helper budget exhausted by concurrent publishes: the
			// publisher goroutine absorbs the remainder.
			break spawn
		}
	}
	end := buf.work(0, buf.mark)
	if helpers > 0 {
		buf.wg.Wait()
		end = b.clock.Now()
	}
	var enum, scored time.Duration
	for w := range buf.scratch {
		sc := &buf.scratch[w]
		for c, v := range sc.tally {
			buf.tally[c] += v
		}
		enum, scored = enum+sc.enum, scored+sc.scored
		sc.tally, sc.enum, sc.scored = [numCounters]uint64{}, 0, 0
	}
	d := end.Sub(buf.mark)
	var de time.Duration
	if sum := enum + scored; sum > 0 {
		de = time.Duration(math.Round(float64(d) * float64(enum) / float64(sum)))
	}
	buf.dur[stEnumerate], buf.dur[stScore] = de, d-de
	buf.mark = end
}

// work is one scoring worker, started at t: it pulls events off the shared
// cursor, enumerates each one's candidates — from the pruning index into
// its own scratch, or the full-scan snapshot — and scores them, appending
// above-threshold scores to the event's hit list and tallying the pairs it
// stops. With an Engine the candidates are swept in one call through the
// worker's arena, whose row memo holds the event's rows; a plain Matcher
// is scored pair by pair through Score. It reads the clock after each step
// and returns its last reading.
func (buf *pubBatchBuf) work(wid int, t time.Time) time.Time {
	b := buf.b
	sc := &buf.scratch[wid]
	subs, scores := sc.subs, sc.scores
	var zero, below, bound uint64
	threshold := b.cfg.threshold
	for {
		ei := int(buf.cursor.Add(1)) - 1
		if ei >= len(buf.events) {
			break
		}
		cands := buf.snapshot
		if !buf.fullScan {
			// Candidate set from the pruning index: subscriptions whose
			// exact predicates cannot all be satisfied by the event's
			// tuples are skipped before any semantic measure runs.
			sc.cands = sc.cands[:0]
			attrs, values := buf.pes[ei].CanonicalTuples()
			_, pruned := b.subs.CandidatesPrepared(attrs, values, sc.add)
			sc.tally[cPruned] += uint64(pruned)
			cands = sc.cands
		}
		b.candHist.Observe(float64(len(cands)))
		sc.tally[cScanned] += uint64(len(cands))
		now := b.clock.Now()
		sc.enum += now.Sub(t)
		t = now

		scores = scores[:0]
		if b.engine != nil {
			subs = subs[:0]
			for _, s := range cands {
				subs = append(subs, s.prepared)
			}
			scores = b.engine.ScoreBatchInArena(buf.arenas[wid], subs, buf.pes[ei], scores)
		} else {
			e := buf.events[ei]
			for _, s := range cands {
				scores = append(scores, b.matcher.Score(s.sub, e))
			}
		}
		hits := buf.hits[ei]
		for k, s := range cands {
			switch v := scores[k]; {
			case v == matcher.RejectedByBound:
				bound++
			case !(v > 0):
				zero++
			case v < threshold:
				below++
			default:
				hits = append(hits, batchHit{s: s, ei: int32(ei), score: v})
			}
		}
		buf.hits[ei] = hits
		now = b.clock.Now()
		sc.scored += now.Sub(t)
		t = now
	}
	sc.subs, sc.scores = subs, scores
	sc.tally[cScoreZero] += zero
	sc.tally[cScoreBelow] += below
	sc.tally[cScoreBound] += bound
	return t
}

// deliver appends the per-event hit lists to merged in event order,
// buckets the hits per subscriber (chained through prev/head, no
// per-subscriber allocation) and offers each group, in event order, under
// one queue-lock acquisition.
func (buf *pubBatchBuf) deliver() {
	merged := buf.merged
	for i, h := range buf.hits[:len(buf.events)] {
		merged = append(merged, h...)
		clear(h)
		buf.hits[i] = h[:0]
	}
	buf.merged = merged
	buf.tally[cMatched] += uint64(len(merged))
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
		slices.Reverse(g) // the chain runs from the subscriber's last hit back
		buf.group = g
		buf.offerBatch(s, g)
	}
}

// offerBatch enqueues one subscriber's deliveries of the publish under a
// single queue-lock acquisition and tallies each one's outcome. Every
// delivery of the publish carries one timestamp, the deliver stage's start.
func (buf *pubBatchBuf) offerBatch(s *Subscriber, hits []batchHit) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		buf.tally[cDeliverClosed] += uint64(len(hits))
		return
	}
	enqueued := false
	for _, h := range hits {
		out, dropped := s.enqueue(Delivery{Event: buf.events[h.ei], SubscriptionID: s.id, Score: h.score, At: buf.mark})
		buf.tally[out]++
		if dropped {
			buf.tally[cDropped]++
		}
		enqueued = enqueued || out == cDelivered
	}
	notify := s.notify
	s.mu.Unlock()
	if enqueued && notify != nil {
		notify()
	}
}
