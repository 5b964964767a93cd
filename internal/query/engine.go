// Package query is the continuous-query engine: it registers CEP patterns
// the way the broker registers subscriptions and runs them against the
// live delivery stream. The paper builds its probabilistic single-event
// matcher precisely so matches "can feed into a complex event processing
// module" (§3.5); this package closes that loop. Each named query owns a
// thematic subscription that selects and scores its feeding stream — the
// match score becomes the constituent probability — and a cep pattern
// (sequence, conjunction, negation, count) that turns scored deliveries
// into detections.
//
// In cluster mode the engine runs on the theme shard that owns the query's
// feeding subscription: the broker server redirects query frames exactly
// like subscribe frames, so window state always lives where the theme's
// events land, and the backend's federated subscription (with its event-ID
// dedup) feeds tags the shard does not own. The engine adds its own
// event-ID dedup ring on top, so a replayed or re-forwarded event cannot
// enter a window twice — detections stay duplicate-free across a
// partition/heal cycle.
//
// A query is served like a subscription: it parks no goroutine. Its feed's
// notify hook observes each delivery on the goroutine that enqueued it —
// inside the publish — and its detections wait in a broker.Ring read through
// Take and SetNotify, the way a connection's DeliveryWriter reads a
// subscriber's queue.
//
// Time-driven emissions (negation expiry, aggregate re-arming) need a
// driver even when no events arrive: a ticker flushes every pattern on an
// interval, and Broker.OnDrain hooks the engine's Drain so shutdown closes
// all open windows and emits what they still hold.
package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cep"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// Query kinds (QuerySpec.Kind).
const (
	KindSequence    = "sequence"
	KindConjunction = "conjunction"
	KindNegation    = "negation"
	KindCount       = "count"
)

// DefaultFlushInterval is how often the engine flushes pattern windows on
// a quiet stream.
const DefaultFlushInterval = time.Second

// dedupWindow bounds the engine's per-query event-ID dedup window, mirroring
// the federation edge dedup size.
const dedupWindow = 1024

// detectionQueue bounds a query's pending detections, the broker's queue
// default; overflow drops the oldest, as a subscriber's queue does.
const detectionQueue = 64

// Errors returned by Register.
var (
	ErrClosed         = errors.New("query: engine closed")
	ErrDuplicateQuery = errors.New("query: duplicate query name")
)

// Option configures an Engine.
type Option func(*Engine)

// WithClock replaces the wall clock (tests use telemetry.Manual). The
// clock is shared with every pattern the engine builds.
func WithClock(c telemetry.Clock) Option { return func(e *Engine) { e.clock = c } }

// WithDetectionSLO attaches a latency SLO fed by every detection's
// event-to-detection latency (the same measurement as the detect
// histogram), so burn-rate alerting covers the CEP path alongside
// delivery. A nil SLO is ignored.
func WithDetectionSLO(s *telemetry.SLO) Option { return func(e *Engine) { e.detectSLO = s } }

// WithFlushInterval overrides how often pattern windows are flushed on a
// quiet stream (DefaultFlushInterval); d <= 0 disables the ticker, leaving
// flushing to FlushExpired callers and Drain.
func WithFlushInterval(d time.Duration) Option { return func(e *Engine) { e.flushEvery = d } }

// Journal records durable query registration changes (implemented by
// wal.Log): every Register and client-initiated Close is appended so a
// crashed broker re-registers its continuous queries on restart. The
// window state itself is not journaled — a recovered query restarts with
// an empty window, trading a partial pattern re-warm for a log that stays
// proportional to registrations, not traffic.
type Journal interface {
	QueryRegistered(spec *broker.QuerySpec)
	QueryUnregistered(name string)
}

// WithJournal installs a query registration journal.
func WithJournal(j Journal) Option { return func(e *Engine) { e.journal = j } }

// Engine owns named continuous queries over one backend (a local broker or
// a cluster node). It implements broker.QueryRegistrar for the wire server
// and broker.Collector for /metrics.
type Engine struct {
	be         broker.Backend
	clock      telemetry.Clock
	flushEvery time.Duration

	detectHist *telemetry.Histogram // event-to-detection latency
	detectSLO  *telemetry.SLO       // nil unless WithDetectionSLO enabled it
	journal    Journal              // nil unless WithJournal enabled it

	mu      sync.Mutex
	queries map[string]*Query
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds an engine over a backend and starts its flush ticker.
func New(be broker.Backend, opts ...Option) *Engine {
	e := &Engine{
		be:         be,
		clock:      telemetry.System,
		flushEvery: DefaultFlushInterval,
		queries:    make(map[string]*Query),
		done:       make(chan struct{}),
		detectHist: telemetry.NewHistogram("thematicep_query_detect_seconds",
			"Event-to-detection latency: detection emission minus the newest constituent's admission.",
			telemetry.LatencyBuckets()),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.flushEvery > 0 {
		e.wg.Add(1)
		go e.flushLoop()
	}
	return e
}

// Register validates a spec, builds its pattern, subscribes the feeding
// stream on the backend, and installs the feed's hook.
func (e *Engine) Register(spec *broker.QuerySpec) (*Query, error) {
	if spec == nil {
		return nil, errors.New("query: nil spec")
	}
	if spec.Name == "" {
		return nil, errors.New("query: empty name")
	}
	if spec.Window <= 0 {
		return nil, fmt.Errorf("query %q: window must be positive", spec.Name)
	}
	if spec.Subscription == nil {
		return nil, fmt.Errorf("query %q: missing feeding subscription", spec.Name)
	}
	pattern, err := buildPattern(spec, e.clock)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := e.queries[spec.Name]; ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateQuery, spec.Name)
	}
	// Reserve the name before subscribing (the subscribe may be slow on a
	// federated backend); a racing Register of the same name must lose.
	e.queries[spec.Name] = nil
	e.mu.Unlock()

	// The feed is ephemeral: recovery re-creates it by re-registering the
	// journaled query, so it must not be journaled as a plain subscription.
	sub, err := e.be.SubscribeHandle(spec.Subscription, broker.Ephemeral())
	if err != nil {
		e.mu.Lock()
		delete(e.queries, spec.Name)
		e.mu.Unlock()
		return nil, fmt.Errorf("query %q: subscribe: %w", spec.Name, err)
	}

	q := &Query{
		eng:     e,
		name:    spec.Name,
		spec:    spec,
		pattern: pattern,
		sub:     sub,
		seen:    event.IDWindow{Size: dedupWindow},
	}
	e.mu.Lock()
	if e.closed {
		delete(e.queries, spec.Name)
		e.mu.Unlock()
		sub.Close()
		return nil, ErrClosed
	}
	e.queries[spec.Name] = q
	e.mu.Unlock()

	sub.SetNotify(q.feed)
	if e.journal != nil {
		e.journal.QueryRegistered(spec)
	}
	return q, nil
}

// RegisterQuery implements broker.QueryRegistrar.
func (e *Engine) RegisterQuery(spec *broker.QuerySpec) (broker.QueryHandle, error) {
	return e.Register(spec)
}

// Get returns a registered query by name.
func (e *Engine) Get(name string) (*Query, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	return q, ok && q != nil
}

// snapshot copies the live query set.
func (e *Engine) snapshot() []*Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

func (e *Engine) flushLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			e.FlushExpired()
		}
	}
}

// FlushExpired advances every pattern to the current clock time, emitting
// detections whose windows have closed — the driver that lets a quiet
// stream still fire negation expiries. It returns the number of
// detections emitted.
func (e *Engine) FlushExpired() int {
	now := e.clock.Now()
	total := 0
	for _, q := range e.snapshot() {
		total += q.flush(now, 0)
	}
	return total
}

// Drain force-closes every open window with end-of-stream semantics: each
// pattern is flushed to now + its window, so pending negation and
// aggregate state emits its final detections. Broker.OnDrain runs this
// between quiescing publishes and flushing subscriber queues, so the
// emissions still reach connected clients.
func (e *Engine) Drain() {
	now := e.clock.Now()
	for _, q := range e.snapshot() {
		q.flush(now, q.spec.Window+time.Nanosecond)
	}
}

// Close stops the flush ticker and shuts every query down.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	qs := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		if q != nil {
			qs = append(qs, q)
		}
	}
	e.queries = make(map[string]*Query)
	e.mu.Unlock()

	close(e.done)
	e.wg.Wait()
	for _, q := range qs {
		q.shutdown()
	}
}

// unregister removes q from the engine if it is still the registered
// holder of its name.
func (e *Engine) unregister(q *Query) {
	e.mu.Lock()
	removed := false
	if cur, ok := e.queries[q.name]; ok && cur == q {
		delete(e.queries, q.name)
		removed = true
	}
	e.mu.Unlock()
	// Only a client-initiated Close reaches here; engine shutdown goes
	// through q.shutdown() directly, so a graceful daemon stop never
	// erases journaled queries (and the daemon seals the log first anyway).
	if removed && e.journal != nil {
		e.journal.QueryUnregistered(q.name)
	}
}

// QueryStats is one query's counters.
type QueryStats struct {
	Name       string
	Kind       string
	Fed        uint64 // deliveries fed into the pattern
	Deduped    uint64 // duplicate event IDs suppressed before the pattern
	Detections uint64 // detections emitted
	Dropped    uint64 // detections dropped by the overflow policy
	Occupancy  int    // window state held by the pattern
}

// Stats snapshots every registered query, sorted by name.
func (e *Engine) Stats() []QueryStats {
	qs := e.snapshot()
	out := make([]QueryStats, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DetectLatency snapshots the event-to-detection latency histogram.
func (e *Engine) DetectLatency() telemetry.HistogramSnapshot { return e.detectHist.Snapshot() }

// buildPattern compiles a spec into a clock-injected cep pattern.
func buildPattern(spec *broker.QuerySpec, clock telemetry.Clock) (cep.Pattern, error) {
	filters := make([]cep.Filter, len(spec.Steps))
	for i, st := range spec.Steps {
		if st.Attr == "" {
			return nil, fmt.Errorf("query %q: step %d: empty attribute", spec.Name, i)
		}
		if st.Value == "" {
			filters[i] = cep.HasAttr(st.Attr)
		} else {
			filters[i] = cep.AttrEquals(st.Attr, st.Value)
		}
	}
	switch spec.Kind {
	case KindSequence:
		if len(filters) == 0 {
			return nil, fmt.Errorf("query %q: sequence needs at least one step", spec.Name)
		}
		return cep.NewSequence(spec.Window, spec.Threshold, filters...).WithClock(clock), nil
	case KindConjunction:
		if len(filters) == 0 {
			return nil, fmt.Errorf("query %q: conjunction needs at least one step", spec.Name)
		}
		return cep.NewConjunction(spec.Window, spec.Threshold, filters...).WithClock(clock), nil
	case KindNegation:
		if len(filters) != 2 {
			return nil, fmt.Errorf("query %q: negation needs exactly two steps (trigger, absent)", spec.Name)
		}
		return cep.NewNegation(spec.Window, spec.Threshold, filters[0], filters[1]).WithClock(clock), nil
	case KindCount:
		if len(filters) > 1 {
			return nil, fmt.Errorf("query %q: count takes at most one step", spec.Name)
		}
		f := cep.Filter(func(*event.Event) bool { return true })
		if len(filters) == 1 {
			f = filters[0]
		}
		min := spec.MinExpected
		if min <= 0 {
			min = 1
		}
		return cep.NewCount(spec.Window, min, f).WithClock(clock), nil
	}
	return nil, fmt.Errorf("query %q: unknown kind %q", spec.Name, spec.Kind)
}

// Query is one registered continuous query: a feeding subscription, a cep
// pattern, and a detection queue. It implements broker.QueryHandle.
type Query struct {
	eng     *Engine
	name    string
	spec    *broker.QuerySpec
	pattern cep.Pattern
	sub     broker.SubHandle

	// mu orders the query: deliveries are taken from the feed and observed,
	// and detections queued and taken, under it.
	mu sync.Mutex
	// Event-ID dedup window: the federation edge already dedups across
	// peers, but the engine guards its window state independently so a
	// replayed delivery or an operator re-feed cannot double-count.
	seen   event.IDWindow
	taken  []broker.Delivery // the feed's queue, as feed took it
	dets   broker.Ring[broker.QueryDetection]
	notify func() // see SetNotify
	closed bool

	fed        atomic.Uint64
	deduped    atomic.Uint64
	detections atomic.Uint64
	dropped    atomic.Uint64
}

// Name returns the query's registered name.
func (q *Query) Name() string { return q.name }

// Take moves every queued detection onto dst in queue order and reports
// whether the query is still open. Detections queued before the query
// closed are still handed out, together with open == false.
func (q *Query) Take(dst []broker.QueryDetection) (taken []broker.QueryDetection, open bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dets.Take(dst), !q.closed
}

// SetNotify installs fn to be called after detections have been queued and
// after the query closes, outside the query's lock; it is called at once if
// detections are already queued or the query is closed. fn must not block.
func (q *Query) SetNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	pending := q.closed || q.dets.Len() > 0
	q.mu.Unlock()
	if pending && fn != nil {
		fn()
	}
}

// Close unregisters the query and closes its feed; its consumer is notified
// and may still Take what was queued. Safe to call more than once.
func (q *Query) Close() {
	q.eng.unregister(q)
	q.shutdown()
}

func (q *Query) shutdown() {
	q.mu.Lock()
	was := q.closed
	q.closed = true
	notify := q.notify
	q.mu.Unlock()
	if was {
		return
	}
	q.sub.Close() // fires the feed's hook: what is left is observed, not queued
	if notify != nil {
		notify()
	}
}

// feed is the feeding subscription's notify hook. It runs on the goroutine
// that enqueued the deliveries — a publish, or a federation peer's offer —
// and takes and observes the whole queue under q.mu, so deliveries enter
// the pattern in queue order however many publishers race, and a publish
// returns only after every window it feeds has seen it.
func (q *Query) feed() {
	q.mu.Lock()
	q.taken, _ = q.sub.Take(q.taken[:0])
	fired := 0
	for _, d := range q.taken {
		fired += q.observe(d)
	}
	clear(q.taken)
	q.unlock(fired)
}

// unlock releases q.mu and, when detections fired, wakes the consumer.
func (q *Query) unlock(fired int) {
	notify := q.notify
	q.mu.Unlock()
	if fired > 0 && notify != nil {
		notify()
	}
}

// observe converts one delivery into an uncertain event (probability =
// match score, event time = broker admission time), feeds the pattern, and
// returns how many detections fired. The caller holds q.mu.
func (q *Query) observe(d broker.Delivery) int {
	if d.Event == nil {
		return 0
	}
	if d.Event.ID != "" && !q.seen.Fresh(d.Event.ID) {
		q.deduped.Add(1)
		return 0
	}
	q.fed.Add(1)
	at := d.At
	if at.IsZero() {
		at = q.eng.clock.Now()
	}
	dets := q.pattern.Observe(cep.UncertainEvent{
		Event:       d.Event,
		Probability: d.Score,
		At:          at,
	})
	if len(dets) > 0 {
		q.emit(dets, q.eng.clock.Now())
	}
	return len(dets)
}

// flush advances the pattern to now+pad and emits any resulting
// detections, returning how many fired.
func (q *Query) flush(now time.Time, pad time.Duration) int {
	f, ok := q.pattern.(cep.Flusher)
	if !ok {
		return 0
	}
	q.mu.Lock()
	dets := f.Flush(now.Add(pad))
	q.emit(dets, now)
	q.unlock(len(dets))
	return len(dets)
}

// emit records telemetry and queues detections, dropping the oldest pending
// one when the consumer lags (the broker's overflow policy). The caller
// holds q.mu.
func (q *Query) emit(dets []cep.Detection, now time.Time) {
	for _, det := range dets {
		events := make([]*event.Event, len(det.Events))
		var newest time.Time
		for i, ue := range det.Events {
			events[i] = ue.Event
			if ue.At.After(newest) {
				newest = ue.At
			}
		}
		if !newest.IsZero() {
			q.eng.detectHist.ObserveDuration(now.Sub(newest))
			q.eng.detectSLO.Observe(now.Sub(newest))
		}
		q.detections.Add(1)
		if q.closed {
			continue
		}
		d := broker.QueryDetection{Query: q.name, Probability: det.Probability, Events: events, At: now}
		if q.dets.Push(d, detectionQueue) {
			q.dropped.Add(1)
		}
	}
}

func (q *Query) stats() QueryStats {
	st := QueryStats{
		Name:       q.name,
		Kind:       q.spec.Kind,
		Fed:        q.fed.Load(),
		Deduped:    q.deduped.Load(),
		Detections: q.detections.Load(),
		Dropped:    q.dropped.Load(),
	}
	if o, ok := q.pattern.(cep.Occupant); ok {
		st.Occupancy = o.Occupancy()
	}
	return st
}
