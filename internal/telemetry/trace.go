package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one pipeline stage of a trace. Offsets are relative to the trace
// start; spans may overlap (the deliver span aggregates offers that run
// inside the score span) and may arrive after the trace finished (cluster
// forward hops complete after Publish returns).
type Span struct {
	Stage    string        `json:"stage"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace is the recorded pipeline history of one sampled event on one node.
// In a federation a sampled publish produces one trace fragment per broker
// it touches, all sharing a TraceID: the origin fragment (Parent empty)
// plus one remote fragment per forward hop (Parent naming the forwarding
// node). Offsets within a fragment are relative to that fragment's own
// Start — no cross-node clock synchronization is assumed; reassembly
// (themctl trace) merges fragments by TraceID and orders them by the
// parent relation, not by wall clock.
type Trace struct {
	EventID string        `json:"event_id"`
	Start   time.Time     `json:"start"`
	Total   time.Duration `json:"total_ns"`
	Spans   []Span        `json:"spans"`

	// TraceID links this fragment to the fragments recorded by other
	// nodes for the same sampled publish.
	TraceID string `json:"trace_id,omitempty"`
	// Node identifies the broker that recorded this fragment.
	Node string `json:"node,omitempty"`
	// Parent names the node that forwarded the event here; empty on the
	// origin fragment.
	Parent string `json:"parent,omitempty"`
	// Events lists the member event IDs of a batch trace (one fragment
	// per sampled multi-event publish, looked up by any member ID); nil
	// for single-event traces.
	Events []string `json:"events,omitempty"`
}

// Member reports whether id is the trace's event or one of its batch
// members.
func (tr *Trace) Member(id string) bool {
	if tr.EventID == id {
		return true
	}
	for _, e := range tr.Events {
		if e == id {
			return true
		}
	}
	return false
}

// TraceContext is the compact trace state stamped into forward/publishb
// wire frames so a sampled publish keeps one causally linked trace across
// peers: the trace ID, the forwarding node (the remote fragment's parent),
// and the sampled bit. An unsampled event carries no context at all.
type TraceContext struct {
	TraceID string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
}

// TracerOption configures a Tracer.
type TracerOption interface {
	applyTracer(*Tracer)
}

type tracerClockOption struct{ c Clock }

func (o tracerClockOption) applyTracer(t *Tracer) { t.clock = o.c }

// WithClock sets the tracer's clock (default System).
func WithClock(c Clock) TracerOption { return tracerClockOption{c} }

type ringSizeOption int

func (o ringSizeOption) applyTracer(t *Tracer) { t.ringSize = int(o) }

// WithRingSize bounds the in-memory ring of recent traces (default 64).
func WithRingSize(n int) TracerOption { return ringSizeOption(n) }

type nodeOption string

func (o nodeOption) applyTracer(t *Tracer) { t.node = string(o) }

// WithNode stamps every trace fragment with the recording broker's
// identity and prefixes generated trace IDs with it, so fragments merged
// across a federation stay attributable and IDs stay globally unique.
func WithNode(id string) TracerOption { return nodeOption(id) }

type loggerOption struct {
	l     *slog.Logger
	every int
}

func (o loggerOption) applyTracer(t *Tracer) {
	t.logger = o.l
	if o.every > 0 {
		t.logEvery = uint64(o.every)
	}
}

// WithLogger mirrors every logEvery-th finished trace to a slog logger (a
// sampled sink on top of the tracer's own event sampling; logEvery <= 1
// logs every sampled trace).
func WithLogger(l *slog.Logger, logEvery int) TracerOption {
	return loggerOption{l, logEvery}
}

// adoptLimit bounds the pending-adoption map: forwarded trace contexts
// whose publish never arrives (dropped frames, shed forwards) must not
// accumulate, so the map is cleared outright when full — the lost
// adoptions cost a missing remote fragment, never memory.
const adoptLimit = 1024

// Tracer samples 1-in-every published events and records their pipeline
// spans into a bounded ring. The unsampled fast path is a single atomic
// add; all per-span bookkeeping happens only on sampled events, so tracing
// can stay enabled in production at a coarse sampling rate.
//
// Ring eviction is atomic per trace: a finished trace is reachable for
// late-span attachment (AppendSpan) only through the event index, and
// eviction removes the whole trace from both ring and index in one
// critical section. A late span therefore either lands on the complete
// live trace or is dropped — it can never attach to a half-evicted slot or
// to an older trace that happens to reuse the event ID.
type Tracer struct {
	clock    Clock
	every    uint64
	ringSize int
	node     string
	logger   *slog.Logger
	logEvery uint64

	seq      atomic.Uint64
	logSeq   atomic.Uint64
	traceSeq atomic.Uint64
	epoch    int64 // creation instant, distinguishes restarts in trace IDs

	mu      sync.Mutex
	ring    []*Trace          // ring buffer of finished traces
	next    int               // ring insertion cursor
	byEvent map[string]*Trace // event ID -> most recent live trace
	adopted map[string]TraceContext
}

// NewTracer samples one event in every (1 = every event). every <= 0
// returns nil: a nil *Tracer is valid and records nothing.
func NewTracer(every int, opts ...TracerOption) *Tracer {
	if every <= 0 {
		return nil
	}
	t := &Tracer{
		clock:    System,
		every:    uint64(every),
		ringSize: 64,
		logEvery: 1,
		byEvent:  make(map[string]*Trace),
		adopted:  make(map[string]TraceContext),
	}
	for _, opt := range opts {
		opt.applyTracer(t)
	}
	t.epoch = t.clock.Now().UnixNano()
	return t
}

// newTraceID mints a cluster-unique trace ID: node identity (when set),
// the tracer's creation instant (distinguishing restarts), and a sequence
// number.
func (t *Tracer) newTraceID() string {
	return fmt.Sprintf("%s.%x.%x", t.node, uint64(t.epoch), t.traceSeq.Add(1))
}

// Start begins a trace for an event if this event is sampled; otherwise it
// returns nil (and a nil *ActiveTrace is safe to use — every method
// no-ops).
func (t *Tracer) Start(eventID string) *ActiveTrace {
	if t == nil {
		return nil
	}
	return t.StartAt(eventID, t.clock.Now())
}

// StartAt is Start with an explicit anchor, so a caller that timestamped
// the pipeline entry before the sampling decision can keep every span
// offset non-negative relative to it. An event whose ID was adopted from a
// forwarded trace context (Adopt) is always sampled and continues the
// originating trace.
func (t *Tracer) StartAt(eventID string, start time.Time) *ActiveTrace {
	if t == nil {
		return nil
	}
	if tc, ok := t.takeAdopted(eventID); ok {
		return &ActiveTrace{
			t:  t,
			tr: Trace{EventID: eventID, Start: start, TraceID: tc.TraceID, Node: t.node, Parent: tc.Parent},
		}
	}
	if (t.seq.Add(1)-1)%t.every != 0 {
		return nil
	}
	return &ActiveTrace{
		t:  t,
		tr: Trace{EventID: eventID, Start: start, TraceID: t.newTraceID(), Node: t.node},
	}
}

// Adopt registers a forwarded trace context for an incoming event (or for
// a forwarded batch, keyed by its first member), so the next StartAt for
// that ID is sampled unconditionally and continues the originating trace. Unsampled or empty contexts are ignored. The pending
// set is bounded (adoptLimit) and cleared when full.
func (t *Tracer) Adopt(eventID string, tc *TraceContext) {
	if t == nil || eventID == "" || tc == nil || !tc.Sampled || tc.TraceID == "" {
		return
	}
	t.mu.Lock()
	if len(t.adopted) >= adoptLimit {
		clear(t.adopted)
	}
	t.adopted[eventID] = *tc
	t.mu.Unlock()
}

func (t *Tracer) takeAdopted(eventID string) (TraceContext, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tc, ok := t.adopted[eventID]
	if ok {
		delete(t.adopted, eventID)
	}
	return tc, ok
}

// ContextFor returns the wire trace context for an event whose trace is
// still live in the ring: the federation layer stamps it onto forward
// frames so peers continue the trace. The second return is false when the
// event was not sampled (or its trace already evicted).
func (t *Tracer) ContextFor(eventID string) (TraceContext, bool) {
	if t == nil || eventID == "" {
		return TraceContext{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byEvent[eventID]
	if !ok {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: tr.TraceID, Parent: t.node, Sampled: true}, true
}

// finish stores a completed trace in the ring, indexes it by its event IDs
// for late-span attachment, and mirrors it to the slog sink. The evicted
// trace (if any) is unindexed in the same critical section — whole-trace
// eviction, never a partial span tree.
func (t *Tracer) finish(tr Trace) {
	p := &tr
	t.mu.Lock()
	if len(t.ring) < t.ringSize {
		t.ring = append(t.ring, p)
	} else {
		t.unindex(t.ring[t.next])
		t.ring[t.next] = p
		t.next = (t.next + 1) % t.ringSize
	}
	t.index(p)
	t.mu.Unlock()

	if t.logger != nil && (t.logSeq.Add(1)-1)%t.logEvery == 0 {
		attrs := make([]any, 0, 4+2*len(tr.Spans))
		attrs = append(attrs, "event_id", tr.EventID, "trace_id", tr.TraceID, "total", tr.Total)
		for _, s := range tr.Spans {
			attrs = append(attrs, s.Stage, s.Duration)
		}
		t.logger.Info("pipeline trace", attrs...)
	}
}

// index claims every event ID of a trace in the attachment index (the
// newest trace for an ID wins; an older trace with the same ID becomes
// unreachable for late spans, which is exactly the atomicity contract).
func (t *Tracer) index(tr *Trace) {
	t.byEvent[tr.EventID] = tr
	for _, id := range tr.Events {
		t.byEvent[id] = tr
	}
}

// unindex releases a trace's claims, leaving claims that a newer trace
// already overwrote untouched.
func (t *Tracer) unindex(tr *Trace) {
	if tr == nil {
		return
	}
	if t.byEvent[tr.EventID] == tr {
		delete(t.byEvent, tr.EventID)
	}
	for _, id := range tr.Events {
		if t.byEvent[id] == tr {
			delete(t.byEvent, id)
		}
	}
}

// AppendSpan attaches a late span (for example a cluster forward hop) to
// the live trace carrying eventID. It reports whether one was found:
// sampling means most events have none, and an evicted trace never
// accepts late spans (see the eviction contract in the type docs).
func (t *Tracer) AppendSpan(eventID, stage string, start time.Time, d time.Duration) bool {
	if t == nil || eventID == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byEvent[eventID]
	if !ok {
		return false
	}
	off := start.Sub(tr.Start)
	tr.Spans = append(tr.Spans, Span{Stage: stage, Offset: off, Duration: d})
	if end := off + d; end > tr.Total {
		tr.Total = end
	}
	return true
}

// Recent returns the ring's traces, newest first.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		tr := *t.ring[idx]
		tr.Spans = append([]Span(nil), tr.Spans...)
		out = append(out, tr)
	}
	return out
}

// Handler serves the recent traces as a JSON array (the /debug/traces
// endpoint). A nil tracer serves an empty array.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		traces := t.Recent()
		if traces == nil {
			traces = []Trace{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(traces)
	})
}

// ActiveTrace is one in-progress sampled trace. All methods are safe on a
// nil receiver (the unsampled case) and safe for concurrent use (parallel
// dispatch workers may add spans concurrently).
type ActiveTrace struct {
	t *Tracer

	mu sync.Mutex
	tr Trace
}

// Context returns the wire trace context of this in-progress trace (for
// stamping onto frames before Finish). A nil receiver returns a zero,
// unsampled context.
func (a *ActiveTrace) Context() TraceContext {
	if a == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: a.tr.TraceID, Parent: a.tr.Node, Sampled: true}
}

// SetEvents makes the trace a batch trace: one sampling unit whose nominal
// event (the ID passed to StartAt, which also keys adoption) is the batch's
// first member, with every member ID indexed on Finish so AppendSpan and
// ContextFor find the trace by any member. It takes ownership of ids; the
// caller builds the list only once a trace was actually started, so an
// unsampled batch pays nothing for it.
func (a *ActiveTrace) SetEvents(ids []string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Events = ids
	a.mu.Unlock()
}

// AddSpanDuration records a stage with an explicit duration.
func (a *ActiveTrace) AddSpanDuration(stage string, start time.Time, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, Span{Stage: stage, Offset: start.Sub(a.tr.Start), Duration: d})
	a.mu.Unlock()
}

// Finish seals the trace (total = now - start) and publishes it to the
// tracer's ring and slog sink.
func (a *ActiveTrace) Finish() {
	if a != nil {
		a.FinishAt(a.t.clock.Now())
	}
}

// FinishAt is Finish with an explicit end, so a caller that timed its
// stages seals the trace at its last reading (total = end - start).
func (a *ActiveTrace) FinishAt(end time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Total = end.Sub(a.tr.Start)
	tr := a.tr
	tr.Spans = append([]Span(nil), tr.Spans...)
	a.mu.Unlock()
	a.t.finish(tr)
}
