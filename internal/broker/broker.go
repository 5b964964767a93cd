// Package broker implements the event-based middleware substrate: a
// publish/subscribe broker with the three classic decoupling dimensions
// (Fig. 1) and a pluggable matcher, so the thematic approximate matcher
// drops in as the broker's matching engine.
//
//   - Space decoupling: producers publish to the broker; they never learn
//     who consumes.
//   - Time decoupling: a bounded replay buffer lets subscribers that join
//     later receive earlier events.
//   - Synchronization decoupling: Publish never blocks on consumers; each
//     subscriber has a bounded queue drained at its own pace, with a
//     drop-oldest overflow policy surfaced in the statistics.
//
// The matcher needs no adapter:
//
//	b := broker.New(matcher.New(space))
//
// # Concurrency
//
// The broker is safe for concurrent use. There is one publish pipeline —
// Publish(e) is PublishBatch of one event — and it fans the events out over
// a bounded worker pool, one worker per event (WithMatchParallelism,
// default GOMAXPROCS): the publishing goroutine always participates, helper
// workers are drawn from a broker-wide budget shared by concurrent
// publishes, and a publish returns only after every match decision and
// delivery of its events is done — callers keep the synchronous contract.
// Matchers implementing Engine (*matcher.Matcher does) get the prepared
// fast path: each subscription is prepared once at Subscribe time and each
// event once per publish, so the hot loop never recompiles themes or
// recanonicalizes terms — and, with pruning on (WithPruning, default), the
// candidate set itself comes from the internal/subindex pruning index
// instead of a full scan, skipping subscriptions whose exact predicates
// this event cannot satisfy. All Stats counters are atomics; no lock is
// held while matching.
package broker

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/freelist"
	"thematicep/internal/matcher"
	"thematicep/internal/subindex"
	"thematicep/internal/telemetry"
)

// Matcher decides whether an event is relevant to a subscription and with
// what score. It is the full-scan reference: what the baselines implement
// (see MatchFunc), what the equivalence tests compare the pipeline against,
// and what scores the replay backlog at Subscribe time.
type Matcher interface {
	Score(s *event.Subscription, e *event.Event) float64
}

// MatchFunc adapts a plain function to the Matcher interface.
type MatchFunc func(s *event.Subscription, e *event.Event) float64

// Score implements Matcher.
func (f MatchFunc) Score(s *event.Subscription, e *event.Event) float64 { return f(s, e) }

// Engine is the one fast seam between the broker and internal/matcher,
// typed over the matcher's own prepared forms: a subscription is prepared
// once at Subscribe time; each publish prepares its events through one
// batch context (every distinct term canonicalized once), draws one
// scoring arena per worker, and sweeps each event's candidates through one
// arena in one call; an arena's similarity-row memo holds the rows of the
// event it is scoring. Scores must be bit-identical to Score — the contexts
// amortize work, they never change a result — except that an arena held to the
// broker's threshold (BatchArena.SetThreshold) may report
// matcher.RejectedByBound for a pair that provably scores below it. *matcher.Matcher satisfies Engine
// directly; New asserts it once. Contexts are single-goroutine; arenas
// drawn from one may then be used concurrently, one goroutine each, and
// everything drawn from a context is invalid after FinishEventBatch.
// Matchers implementing only Matcher (the baselines) are scored through
// Score over a full scan.
type Engine interface {
	Matcher
	PrepareSubscription(s *event.Subscription) *matcher.PreparedSubscription
	NewEventBatch() *matcher.EventBatch
	PrepareEventInBatch(eb *matcher.EventBatch, e *event.Event) *matcher.PreparedEvent
	NewBatchArena(eb *matcher.EventBatch) *matcher.BatchArena
	ScoreBatchInArena(a *matcher.BatchArena, subs []*matcher.PreparedSubscription, pe *matcher.PreparedEvent, out []float64) []float64
	FinishEventBatch(eb *matcher.EventBatch) (termsInterned, termsReused, rowsComputed, rowsReused uint64)
}

// Delivery is one matched event handed to a subscriber.
type Delivery struct {
	// Event is the published event.
	Event *event.Event
	// SubscriptionID identifies which subscription matched.
	SubscriptionID string
	// Score is the matcher's relevance score in (0, 1].
	Score float64
	// Replayed marks deliveries that came from the replay buffer rather
	// than live publication.
	Replayed bool
	// At is the broker's admission timestamp for the delivery: one per
	// publish, taken when its matches are made (the deliver stage starts).
	// Downstream consumers — the continuous-query engine, latency probes —
	// use it as the event's time in window semantics and to measure
	// event-to-detection latency.
	At time.Time
}

// Stats are broker counters; all values are cumulative.
type Stats struct {
	Published   uint64 // events accepted by Publish
	Shed        uint64 // publishes rejected by load shedding (ErrOverloaded)
	Scanned     uint64 // (event, subscription) pairs scored by the matcher
	Pruned      uint64 // pairs skipped by the pruning index (provably score 0)
	Matched     uint64 // (event, subscription) matches
	Delivered   uint64 // deliveries handed to subscriber queues
	Dropped     uint64 // deliveries dropped due to full subscriber queues
	Subscribers int    // currently active subscriptions

	// Publish-batch amortization counters. Every publish is a batch — a
	// serial Publish is a batch of one through the same pipeline — so
	// Batches (and the thematicep_publish_batch_size histogram) count
	// every admitted Publish and PublishBatch call, size 1 included.
	// Terms counts are the publish path's lookups in the semantic space's
	// raw-term memo (semantics.Space.CanonicalTerms): served from it
	// (reused) vs canonicalized fresh (interned). Rows counts are
	// similarity rows served from the arena memos vs computed through the
	// semantic kernel. The term memo lives as long as the space and the
	// row memos' tables persist across publishes, so reuse is high even at
	// batch size 1.
	Batches            uint64 // Publish and PublishBatch calls admitted
	BatchTermsInterned uint64 // raw terms the space's term memo missed (canonicalized fresh)
	BatchTermsReused   uint64 // raw terms the space's term memo served
	BatchRowsComputed  uint64 // similarity rows opened in the arena (value cells are filled on demand)
	BatchRowsReused    uint64 // row requests (mask or row) served from the batch memo
}

// Option configures a Broker.
type Option interface {
	apply(*config)
}

type config struct {
	threshold     float64
	queueSize     int
	replaySize    int
	parallelism   int
	pruning       bool
	shedWatermark int
	clock         telemetry.Clock
	traceEvery    int
	traceOpts     []telemetry.TracerOption
	deliverySLO   *telemetry.SLO
	journal       Journal
}

// Journal records durable registration changes (implemented by wal.Log):
// every non-ephemeral Subscribe and Unsubscribe is appended so a crashed
// broker can re-register its subscriptions on restart. Hooks are called
// outside the broker's lock, after the operation has taken effect.
type Journal interface {
	Subscribed(id string, sub *event.Subscription)
	Unsubscribed(id string)
}

type journalOption struct{ j Journal }

func (o journalOption) apply(c *config) { c.journal = o.j }

// WithJournal installs a registration journal. Registrations marked
// Ephemeral — federation-internal copies and query feeds, both
// reconstructed by their owners on restart — bypass it.
func WithJournal(j Journal) Option { return journalOption{j} }

type thresholdOption float64

func (o thresholdOption) apply(c *config) { c.threshold = float64(o) }

// WithThreshold sets the minimum matcher score for delivery (default 0.05;
// any positive score from a binary matcher passes).
func WithThreshold(t float64) Option { return thresholdOption(t) }

type queueSizeOption int

func (o queueSizeOption) apply(c *config) { c.queueSize = int(o) }

// WithQueueSize sets how many deliveries each subscriber's queue holds
// before dropping the oldest (default 64; at least 1). A queue is allocated
// at its first delivery and grows to this bound only as its backlog does.
func WithQueueSize(n int) Option { return queueSizeOption(n) }

type replaySizeOption int

func (o replaySizeOption) apply(c *config) { c.replaySize = int(o) }

// WithReplayBuffer sets how many recent events the broker retains for
// time-decoupled subscribers (default 256; 0 disables replay).
func WithReplayBuffer(n int) Option { return replaySizeOption(n) }

type parallelismOption int

func (o parallelismOption) apply(c *config) { c.parallelism = int(o) }

// WithMatchParallelism bounds the worker pool a publish fans its events out
// over (default GOMAXPROCS; 1 disables the pool and matches serially on the
// publisher's goroutine). The event is the unit of work: one worker
// enumerates an event's candidates and scores all of them, so a publish of
// one event is matched on the publisher's goroutine and a batch takes at
// most one worker per event. The helper budget (the limit less one) is
// broker-wide, shared by concurrent publishes.
func WithMatchParallelism(n int) Option { return parallelismOption(n) }

type pruningOption bool

func (o pruningOption) apply(c *config) { c.pruning = bool(o) }

type clockOption struct{ c telemetry.Clock }

func (o clockOption) apply(c *config) { c.clock = o.c }

// WithClock sets the clock used for all pipeline stage timing (default
// telemetry.System). Injecting a telemetry.Manual clock makes bucket
// placement in the latency histograms exactly reproducible in tests.
func WithClock(c telemetry.Clock) Option { return clockOption{c} }

type traceSamplingOption struct {
	every int
	opts  []telemetry.TracerOption
}

func (o traceSamplingOption) apply(c *config) {
	c.traceEvery = o.every
	c.traceOpts = append(c.traceOpts, o.opts...)
}

// WithTraceSampling records a pipeline trace (one span per stage: compile,
// ingest, enumerate, score, deliver; a multi-event batch adds one child
// span per member) for one in every n publishes — a batch is one sampling
// unit — keeping them in a bounded in-memory ring served by TracesHandler.
// Tracing is off by default (n <= 0): the untraced publish path performs
// no trace work at all, and even with tracing on an unsampled publish
// costs one atomic add and no allocation. Extra tracer options (ring size,
// slog sink) pass through.
func WithTraceSampling(n int, opts ...telemetry.TracerOption) Option {
	return traceSamplingOption{n, opts}
}

type deliverySLOOption struct{ s *telemetry.SLO }

func (o deliverySLOOption) apply(c *config) { c.deliverySLO = o.s }

// WithDeliverySLO tracks publish-to-deliver latency against a service
// level objective: every admitted event (single or batched) is counted
// good or bad against the SLO's latency threshold when its publish
// completes. The record path is two atomic adds, so the SLO sits on the
// hot path next to the stage histograms without disturbing the 0-alloc
// gates. The caller owns the SLO (typically also registering it as a
// metrics collector); nil disables tracking.
func WithDeliverySLO(s *telemetry.SLO) Option { return deliverySLOOption{s} }

type shedWatermarkOption int

func (o shedWatermarkOption) apply(c *config) { c.shedWatermark = int(o) }

// WithShedWatermark enables publish-side load shedding: when more than n
// Publish calls are already in flight AND the match pipeline is saturated
// (the other publishes in flight, each scoring on its own goroutine, and
// the helper workers they hold fill WithMatchParallelism), additional
// publishes are rejected with ErrOverloaded instead of piling onto the
// contended matcher. A broker without a worker pool (parallelism 1) never
// sheds. Shed publishes are counted in Stats.Shed and exported as
// thematicep_broker_shed_total — bounded degradation is explicit, never a
// silent drop. Zero (the default) disables shedding.
func WithShedWatermark(n int) Option { return shedWatermarkOption(n) }

// WithPruning enables or disables the subscription pruning index (default
// on). When on, Publish builds its candidate set from the event's tuple
// terms via internal/subindex instead of scanning every subscription;
// skipped subscriptions provably score 0 under the §3.4 exact-term
// contract, so delivery sets are identical to the unpruned scan (see the
// subindex package documentation for the argument). Pruning engages only
// for matchers implementing Engine — the thematic matcher and its
// non-thematic variant — because those honor the contract; plain Matcher
// baselines are always scanned in full. Disable it for an Engine whose
// exact-term semantics are looser than canonical equality.
func WithPruning(enabled bool) Option { return pruningOption(enabled) }

// Broker routes published events to matching subscribers. It is safe for
// concurrent use. Close releases all subscribers.
type Broker struct {
	matcher Matcher
	engine  Engine // non-nil when matcher implements the typed fast seam
	cfg     config

	// subs is the registry: the one map from subscription id to
	// registration, guarded by mu for writes (lock order is always mu
	// before the index's internal lock). When prune is set — pruning on
	// (WithPruning) and the matcher an Engine — it also prunes the
	// per-publish candidate set; otherwise it files registrations without
	// requirements and every publish scans it in full.
	subs  *subindex.Index[*Subscriber]
	prune bool

	// sem is the broker-wide helper-worker budget (capacity
	// parallelism-1); acquisition is non-blocking, so a saturated pool
	// degrades to publisher-goroutine matching, never to deadlock.
	sem chan struct{}

	// pubBufs is the free list of publish buffers (see acquirePubBuf):
	// broker-owned, so the large per-publish scratch survives GC cycles
	// instead of being regrown — and re-collected — every publish.
	pubBufs freelist.List[pubBatchBuf]

	// ctr is the accounting table (see counter); atomics so the chain
	// takes no lock to count.
	ctr [numCounters]atomic.Uint64

	// Drain/shutdown coordination: draining refuses new publishes while
	// inflight tracks the Publish calls still running, so Drain can wait
	// for the pipeline to empty without holding b.mu across matching.
	draining atomic.Bool
	inflight atomic.Int64

	// Pipeline telemetry. The histograms are always on (recording is one
	// atomic add on a precomputed bucket index); the tracer is nil unless
	// WithTraceSampling enabled it.
	clock         telemetry.Clock
	tracer        *telemetry.Tracer
	deliverySLO   *telemetry.SLO                  // nil unless WithDeliverySLO enabled it
	publishHist   *telemetry.Histogram            // end-to-end Publish latency
	stageHist     [numStages]*telemetry.Histogram // per stage; nil for ingest
	candHist      *telemetry.Histogram            // candidate-set size distribution
	batchSizeHist *telemetry.Histogram            // events per admitted publish

	mu     sync.RWMutex
	replay []*event.Event // ring buffer, oldest first
	closed bool
	nextID int
	regs   uint64 // registrations so far: each Subscriber's registration number

	// drainHooks run once inside Drain, after in-flight publishes settle
	// and before queue flushing — the point where attached stream
	// processors (the continuous-query engine) flush pending windows so
	// their final emissions still ride the draining queues.
	drainMu       sync.Mutex
	drainHooks    []func()
	drainHooksRun bool
}

// Errors returned by broker operations.
var (
	ErrClosed       = errors.New("broker: closed")
	ErrNilEvent     = errors.New("broker: nil event")
	ErrDuplicateSub = errors.New("broker: duplicate subscription id")
	// ErrDraining is returned by Publish once Drain has begun: the broker
	// no longer admits events but is still flushing subscriber queues.
	ErrDraining = errors.New("broker: draining")
	// ErrOverloaded is returned by Publish when load shedding
	// (WithShedWatermark) rejects an event because the matching pipeline
	// is saturated. The publisher may retry with backoff.
	ErrOverloaded = errors.New("broker: overloaded, publish shed")
)

// New builds a broker around a matcher. A matcher also implementing
// Engine — *matcher.Matcher does — gets the prepare-once, arena-scored,
// index-pruned fast path:
//
//	b := broker.New(matcher.New(space))
func New(m Matcher, opts ...Option) *Broker {
	cfg := config{
		threshold:   0.05,
		queueSize:   64,
		replaySize:  256,
		parallelism: runtime.GOMAXPROCS(0),
		pruning:     true,
	}
	for _, opt := range opts {
		opt.apply(&cfg)
	}
	if cfg.parallelism < 1 {
		cfg.parallelism = 1
	}
	if cfg.queueSize < 1 {
		cfg.queueSize = 1
	}
	if cfg.clock == nil {
		cfg.clock = telemetry.System
	}
	lat := telemetry.LatencyBuckets()
	b := &Broker{
		matcher:     m,
		cfg:         cfg,
		subs:        subindex.New[*Subscriber](),
		pubBufs:     make(freelist.List[pubBatchBuf], pubBufLimit),
		clock:       cfg.clock,
		deliverySLO: cfg.deliverySLO,
		tracer: telemetry.NewTracer(cfg.traceEvery,
			append([]telemetry.TracerOption{telemetry.WithClock(cfg.clock)}, cfg.traceOpts...)...),
		publishHist: telemetry.NewHistogram("thematicep_broker_publish_seconds",
			"End-to-end Publish latency (ingest through last delivery).", lat),
		candHist: telemetry.NewHistogram("thematicep_subindex_candidates_per_event",
			"Candidates enumerated per published event (after pruning).", telemetry.SizeBuckets()),
		batchSizeHist: telemetry.NewHistogram("thematicep_publish_batch_size",
			"Events per admitted publish (a serial Publish is a batch of one).", telemetry.SizeBuckets()),
	}
	for st, s := range stages {
		if s.help != "" {
			b.stageHist[st] = telemetry.NewHistogram("thematicep_broker_"+s.span+"_seconds", s.help, lat)
		}
	}
	if eng, ok := m.(Engine); ok {
		b.engine = eng
		b.prune = cfg.pruning
	}
	if cfg.parallelism > 1 {
		b.sem = make(chan struct{}, cfg.parallelism-1)
	}
	return b
}

// ringStart is a queue's capacity at its first entry; the ring doubles while
// full, up to its limit.
const ringStart = 4

// Ring is the consumer queue of the broker's streams: a subscriber's
// deliveries and a continuous query's detections. It is a FIFO guarded by
// its owner's lock that holds no buffer until its first entry and then keeps
// it, so its capacity is the stream's high-water depth and a consumer that
// keeps up costs no allocation per entry. At its limit it drops the oldest
// entry: producers never wait on a consumer.
type Ring[T any] struct {
	buf  []T // len(buf) is the capacity
	head int // index of the oldest entry
	n    int // entries queued
}

// Push appends v, growing a full ring up to limit and, at limit, dropping
// the oldest entry. It reports whether one was dropped.
func (q *Ring[T]) Push(v T, limit int) (dropped bool) {
	if q.n == len(q.buf) {
		if len(q.buf) < limit {
			buf := make([]T, min(max(2*len(q.buf), ringStart), limit))
			k := copy(buf, q.buf[q.head:])
			copy(buf[k:], q.buf[:q.head])
			q.buf, q.head = buf, 0
		} else {
			var zero T
			q.buf[q.head] = zero
			q.head, q.n, dropped = (q.head+1)%len(q.buf), q.n-1, true
		}
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	return dropped
}

// Take moves every queued entry onto dst in queue order; the next entry goes
// where the taken ones ended.
func (q *Ring[T]) Take(dst []T) []T {
	if q.n == 0 {
		return dst
	}
	first := q.buf[q.head:min(q.head+q.n, len(q.buf))]
	wrapped := q.buf[:q.n-len(first)]
	dst = append(append(dst, first...), wrapped...)
	clear(first)
	clear(wrapped)
	q.head, q.n = (q.head+q.n)%len(q.buf), 0
	return dst
}

// Len returns how many entries are queued.
func (q *Ring[T]) Len() int { return q.n }

// Subscriber is one active subscription with its delivery queue.
type Subscriber struct {
	id       string
	sub      *event.Subscription
	prepared *matcher.PreparedSubscription // prepare-once form; nil without an Engine
	broker   *Broker
	// regLo and regHi hold the low 32 and high 16 bits of the registration
	// number (see registration). They and ephemeral sit in the padding
	// around mu, which keeps Subscriber at 80 bytes.
	regLo uint32

	mu     sync.Mutex
	closed bool
	// ephemeral registrations bypass the journal (see Ephemeral).
	ephemeral bool
	regHi     uint16

	q      *Ring[Delivery]         // nil until the first delivery
	notify func()                  // see SetNotify
	gate   func(*event.Event) bool // see Gate; nil admits everything
}

// maxRegistrations is the last registration number a broker hands out:
// Subscriber stores 48 bits of it. Subscribe fails past it rather than
// wrap; at a million registrations a second it lasts nine years.
const maxRegistrations = 1<<48 - 1

// registration returns s's registration number: the broker's registration
// count, this one included, when s registered. Numbers never wrap, so a
// subscription keeps its place before every later cut however long it lives.
func (s *Subscriber) registration() uint64 { return uint64(s.regHi)<<32 | uint64(s.regLo) }

// registeredAfter reports whether s registered after the broker's
// registration count cut was read.
func (s *Subscriber) registeredAfter(cut uint64) bool { return s.registration() > cut }

// ID returns the subscription id the broker assigned (or the caller chose).
func (s *Subscriber) ID() string { return s.id }

// Take moves every queued delivery onto dst in queue order and reports
// whether the subscription is still open. Deliveries queued before the
// subscription closed are still handed out, together with open == false.
func (s *Subscriber) Take(dst []Delivery) (taken []Delivery, open bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.q != nil {
		dst = s.q.Take(dst)
	}
	return dst, !s.closed
}

// queued returns the queue's depth.
func (s *Subscriber) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.q == nil {
		return 0
	}
	return s.q.Len()
}

// SetNotify installs fn to be called after deliveries have been enqueued and
// after the subscription closes, outside the queue lock; it is called at
// once if the queue is already non-empty or closed. A consumer that calls
// Take whenever fn fires sees every delivery and the close without parking
// a goroutine on the queue. fn must not block.
func (s *Subscriber) SetNotify(fn func()) {
	s.mu.Lock()
	s.notify = fn
	pending := s.closed || (s.q != nil && s.q.n > 0)
	s.mu.Unlock()
	if pending && fn != nil {
		fn()
	}
}

// Close cancels the subscription; its consumer is notified and may still
// Take what was queued.
func (s *Subscriber) Close() {
	s.broker.unsubscribe(s.id)
}

// close marks the subscription closed and fires the hook, so a consumer
// waiting on it takes what is left and sees the end.
func (s *Subscriber) close() {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	notify := s.notify
	s.mu.Unlock()
	if !was && notify != nil {
		notify()
	}
}

// SubscribeOption configures one subscription.
type SubscribeOption interface {
	applySub(*subConfig)
}

type subConfig struct {
	replay    bool
	ephemeral bool
	gate      func(*event.Event) bool
}

type replayOption bool

func (o replayOption) applySub(c *subConfig) { c.replay = bool(o) }

// WithReplay requests that buffered past events be matched and delivered to
// the new subscriber before live events (time decoupling).
func WithReplay(enabled bool) SubscribeOption { return replayOption(enabled) }

type ephemeralOption struct{}

func (ephemeralOption) applySub(c *subConfig) { c.ephemeral = true }

// Ephemeral marks a registration as connection-scoped state that must
// never reach the registration journal: remote copies hosted for a
// federation peer (the peer's reconcile loop re-creates them on
// reconnect) and continuous-query feeds (re-created when the recovered
// query re-registers). Journaling them would resurrect registrations
// whose owner is responsible for rebuilding them.
func Ephemeral() SubscribeOption { return ephemeralOption{} }

type gateOption func(*event.Event) bool

func (o gateOption) applySub(c *subConfig) { c.gate = o }

// Gate puts fn in front of the subscription's queue: it is called under the
// queue lock, in queue order, for every delivery about to be enqueued —
// pipeline matches, the replay backlog and Offer alike — and a false return
// discards the delivery, counted in stopped{deliver, gate_refused} unless a
// federation peer offered it. The federation layer's event-ID window
// is the one caller: local and remote copies of one event meet at the
// queue, so whichever arrives second is dropped there. fn must not block.
func Gate(fn func(*event.Event) bool) SubscribeOption { return gateOption(fn) }

// Subscribe registers a subscription. If sub.ID is empty the broker assigns
// one. The returned Subscriber's queue receives matching deliveries until
// Close; read it with SetNotify and Take.
func (b *Broker) Subscribe(sub *event.Subscription, opts ...SubscribeOption) (*Subscriber, error) {
	if sub == nil {
		return nil, errors.New("broker: subscribe: nil subscription")
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("broker: subscribe: %w", err)
	}
	var sc subConfig
	for _, opt := range opts {
		opt.applySub(&sc)
	}
	// Prepare outside the lock: theme compilation may be expensive.
	var prep *matcher.PreparedSubscription
	if b.engine != nil {
		prep = b.engine.PrepareSubscription(sub)
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	id := sub.ID
	if id == "" {
		b.nextID++
		id = fmt.Sprintf("sub-%d", b.nextID)
	}
	if _, exists := b.subs.Get(id); exists {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSub, id)
	}
	if b.regs == maxRegistrations {
		b.mu.Unlock()
		return nil, errors.New("broker: subscribe: registration numbers exhausted")
	}
	b.regs++
	s := &Subscriber{
		id:        id,
		sub:       sub,
		prepared:  prep,
		broker:    b,
		regLo:     uint32(b.regs),
		regHi:     uint16(b.regs >> 32),
		ephemeral: sc.ephemeral,
		gate:      sc.gate,
	}
	// A pruning broker files the matcher's pruning view, which requires the
	// relaxed terms that can only match themselves; any other registers the
	// subscriber alone, since it scans every registration on publish.
	var view *event.Subscription
	if b.prune {
		view = prep.PruningView()
	}
	b.subs.Add(id, view, s)
	var backlog []*event.Event
	if sc.replay {
		backlog = append(backlog, b.replay...)
	}
	b.mu.Unlock()

	if b.cfg.journal != nil && !sc.ephemeral {
		// Journal with the final ID stamped in so a recovered registration
		// re-registers under the identity the client knows.
		cp := *sub
		cp.ID = id
		b.cfg.journal.Subscribed(id, &cp)
	}

	// Replay outside the lock: matching may be expensive. The backlog is
	// bounded and replay is off the publish hot path, so it goes through
	// the reference scorer.
	for _, e := range backlog {
		if score := b.matcher.Score(sub, e); score >= b.cfg.threshold && score > 0 {
			b.ctr[cReplayMatched].Add(1)
			b.ctr[s.offer(Delivery{Event: e, SubscriptionID: id, Score: score, Replayed: true, At: b.clock.Now()})].Add(1)
		}
	}
	return s, nil
}

func (b *Broker) unsubscribe(id string) {
	b.mu.Lock()
	s, ok := b.subs.Remove(id)
	b.mu.Unlock()
	if ok {
		s.close()
		if b.cfg.journal != nil && !s.ephemeral {
			b.cfg.journal.Unsubscribed(id)
		}
	}
}

// enqueue puts d on the subscriber's queue unless the gate refuses it,
// dropping the oldest queued delivery when the queue is full
// (synchronization decoupling: publishers never block). It returns d's
// outcome, cDelivered or cDeliverGate, and whether a queued delivery was
// pushed out. The caller holds s.mu and has checked s.closed.
func (s *Subscriber) enqueue(d Delivery) (out counter, dropped bool) {
	if s.gate != nil && !s.gate(d.Event) {
		return cDeliverGate, false
	}
	if s.q == nil {
		s.q = new(Ring[Delivery])
	}
	return cDelivered, s.q.Push(d, s.broker.cfg.queueSize)
}

// Offer enqueues one delivery from outside the publish pipeline — the
// replay backlog at Subscribe time, a federation peer's match — and reports
// whether it was enqueued (false: the subscription is closed or its gate
// refused it). Overflow is counted in Stats.Dropped; Stats.Delivered is the
// caller's to count, so that deliveries matched on another broker never
// outrun this broker's Matched.
func (s *Subscriber) Offer(d Delivery) bool { return s.offer(d) == cDelivered }

// offer is Offer naming the outcome: cDelivered or the deliver stage's stop.
func (s *Subscriber) offer(d Delivery) counter {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return cDeliverClosed
	}
	out, dropped := s.enqueue(d)
	notify := s.notify
	s.mu.Unlock()
	if dropped {
		s.broker.ctr[cDropped].Add(1)
	}
	if out == cDelivered && notify != nil {
		notify()
	}
	return out
}

// counts loads the accounting table in its order, downstream terms first.
func (b *Broker) counts() (v [numCounters]uint64) {
	for c := range b.ctr {
		v[c] = b.ctr[c].Load()
	}
	return v
}

// Stats returns a snapshot of the broker counters, taken in one pass with
// no lock held across the counter loads. A publish adds its terms at its
// one exit, upstream first, and the snapshot loads them downstream first
// (see counter), so a snapshot racing a publish never holds a delivery
// whose match is missing: absent replay traffic (replayed deliveries are
// counted in Delivered but have no live match), Delivered <= Matched <=
// Scanned holds in every snapshot.
func (b *Broker) Stats() Stats {
	subscribers := b.subs.Len()
	v := b.counts()
	return Stats{
		Published:   v[cPublished],
		Shed:        v[cShed],
		Scanned:     v[cScanned],
		Pruned:      v[cPruned],
		Matched:     v[cMatched],
		Delivered:   v[cDelivered],
		Dropped:     v[cDropped],
		Subscribers: subscribers,

		Batches:            v[cBatches],
		BatchTermsInterned: v[cTermsInterned],
		BatchTermsReused:   v[cTermsReused],
		BatchRowsComputed:  v[cRowsComputed],
		BatchRowsReused:    v[cRowsReused],
	}
}

// Tracer returns the broker's pipeline tracer (nil unless
// WithTraceSampling enabled tracing). Collaborators such as the cluster
// layer use it to attach late spans — forward hops — to a sampled event's
// trace by event ID.
func (b *Broker) Tracer() *telemetry.Tracer { return b.tracer }

// TracesHandler serves the ring of recent sampled pipeline traces as JSON
// (the /debug/traces endpoint). With tracing off it serves an empty array.
func (b *Broker) TracesHandler() http.Handler { return b.tracer.Handler() }

// Clock returns the clock the broker stamps pipeline stages with.
func (b *Broker) Clock() telemetry.Clock { return b.clock }

// Drain shuts the broker down gracefully: it stops admitting publishes
// (Publish returns ErrDraining), waits for every in-flight Publish to
// finish, then waits for the subscriber queues to be consumed before
// closing. If ctx expires first, the broker is closed anyway — undelivered
// queue entries stay takeable until their handles are dropped — and ctx's
// error is returned. A nil return means every queued delivery for a live
// subscriber was flushed. Drain is idempotent and safe to race with Close,
// Publish, and Subscribe.
func (b *Broker) Drain(ctx context.Context) error {
	b.draining.Store(true)
	defer b.Close()

	// Phase 1: let in-flight publishes complete so every delivery that was
	// admitted reaches its queue. New publishes bounce off the draining
	// flag, so the count can only fall (modulo admission-check blips that
	// exit immediately).
	const poll = 2 * time.Millisecond
	for b.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}

	// The pipeline is quiet: run the drain hooks exactly once so stream
	// processors can flush pending windows (negation expiries, open
	// aggregates) while subscriber queues are still being consumed.
	b.drainMu.Lock()
	hooks := b.drainHooks
	ran := b.drainHooksRun
	b.drainHooksRun = true
	b.drainMu.Unlock()
	if !ran {
		for _, fn := range hooks {
			fn()
		}
	}

	// Phase 2: wait for the subscribers to consume their queues. A
	// subscriber that never reads keeps its depth pinned and the drain
	// runs into the deadline — which is why Drain takes a context.
	for {
		pending := 0
		for _, s := range b.subs.AppendAll(nil) {
			pending += s.queued()
		}
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Draining reports whether Drain has begun (new publishes are refused).
func (b *Broker) Draining() bool { return b.draining.Load() }

// OnDrain registers fn to run once during Drain, after in-flight publishes
// have settled and before subscriber queues are flushed. Hooks must not
// publish (Drain is refusing events); they may still emit on their own
// channels. Registration after Drain has passed the hook point is a no-op.
func (b *Broker) OnDrain(fn func()) {
	b.drainMu.Lock()
	b.drainHooks = append(b.drainHooks, fn)
	b.drainMu.Unlock()
}

// Close shuts the broker down and closes every subscription, notifying
// each consumer.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs.Clear()
	b.mu.Unlock()

	for _, s := range subs {
		s.close()
	}
}
