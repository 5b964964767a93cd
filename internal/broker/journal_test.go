package broker

import (
	"sync"
	"testing"
	"time"

	"thematicep/internal/event"
)

// memJournal records journal calls for assertions.
type memJournal struct {
	mu     sync.Mutex
	subs   map[string]*event.Subscription
	unsubs []string
}

func newMemJournal() *memJournal {
	return &memJournal{subs: make(map[string]*event.Subscription)}
}

func (j *memJournal) Subscribed(id string, sub *event.Subscription) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[id] = sub
}

func (j *memJournal) Unsubscribed(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.unsubs = append(j.unsubs, id)
}

func (j *memJournal) snapshot() (map[string]*event.Subscription, []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	subs := make(map[string]*event.Subscription, len(j.subs))
	for k, v := range j.subs {
		subs[k] = v
	}
	return subs, append([]string(nil), j.unsubs...)
}

// Subscribe and client-driven unsubscribe must reach the journal, with the
// journaled copy carrying the broker-assigned ID so replay can re-register
// it verbatim.
func TestJournalHooks(t *testing.T) {
	j := newMemJournal()
	b := New(exactMatcher(), WithJournal(j))
	defer b.Close()

	s, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	subs, unsubs := j.snapshot()
	if len(subs) != 1 || subs[s.ID()] == nil {
		t.Fatalf("journal saw subs %v, want exactly %q", subs, s.ID())
	}
	if subs[s.ID()].ID != s.ID() {
		t.Fatalf("journaled copy carries ID %q, want %q", subs[s.ID()].ID, s.ID())
	}
	if len(unsubs) != 0 {
		t.Fatalf("unexpected unsubscribes %v", unsubs)
	}

	s.Close()
	_, unsubs = j.snapshot()
	if len(unsubs) != 1 || unsubs[0] != s.ID() {
		t.Fatalf("journal saw unsubscribes %v, want [%q]", unsubs, s.ID())
	}
}

// A caller-provided ID must be preserved end to end — re-attach after
// restart depends on it.
func TestJournalPreservesCallerID(t *testing.T) {
	j := newMemJournal()
	b := New(exactMatcher(), WithJournal(j))
	defer b.Close()

	sub := parkingSub()
	sub.ID = "durable-7"
	s, err := b.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "durable-7" {
		t.Fatalf("broker reassigned ID to %q", s.ID())
	}
	subs, _ := j.snapshot()
	if subs["durable-7"] == nil {
		t.Fatalf("journal keyed by %v, want durable-7", subs)
	}
}

// Ephemeral registrations — federation remote copies, query feeds — must
// never touch the journal: replaying them would resurrect state their
// owners re-create through their own recovery paths.
func TestJournalSkipsEphemeral(t *testing.T) {
	j := newMemJournal()
	b := New(exactMatcher(), WithJournal(j))
	defer b.Close()

	s, err := b.Subscribe(parkingSub(), Ephemeral())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	subs, unsubs := j.snapshot()
	if len(subs) != 0 || len(unsubs) != 0 {
		t.Fatalf("ephemeral subscription reached the journal: subs=%v unsubs=%v", subs, unsubs)
	}
}

// Broker shutdown is not an unsubscribe: closing the broker must leave the
// journal untouched so every registration survives the restart.
func TestBrokerCloseDoesNotEraseJournal(t *testing.T) {
	j := newMemJournal()
	b := New(exactMatcher(), WithJournal(j))
	s, err := b.Subscribe(parkingSub())
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	subs, unsubs := j.snapshot()
	if len(unsubs) != 0 {
		t.Fatalf("broker close journaled unsubscribes %v", unsubs)
	}
	if subs[s.ID()] == nil {
		t.Fatal("registration missing from journal after close")
	}
}

// A reconnecting client that names its WAL-recovered subscription ID adopts
// the live re-registered handle — including deliveries buffered while the
// client was away — instead of creating a fresh registration.
func TestRecoveredSubAttachOverTCP(t *testing.T) {
	b := New(exactMatcher())
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })

	// Simulate the daemon's recovery: re-register under the durable ID and
	// park the handle for adoption.
	sub := parkingSub()
	sub.ID = "recovered-1"
	h, err := b.SubscribeHandle(sub)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecovered()
	rec.ParkSub(h)
	srv.SetRecovered(rec)

	// An event lands before the client reconnects: it buffers on the parked
	// handle.
	if err := b.Publish(parkingEvent("while-away")); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resub := parkingSub()
	resub.ID = "recovered-1"
	id, deliveries, err := c.Subscribe(resub, false)
	if err != nil {
		t.Fatal(err)
	}
	if id != "recovered-1" {
		t.Fatalf("attach returned id %q, want recovered-1", id)
	}
	select {
	case d := <-deliveries:
		if d.Event == nil || d.Event.Tuples[1].Value != "while-away" {
			t.Fatalf("delivery = %+v, want the buffered while-away event", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("buffered delivery never reached the reattached client")
	}
	if ps, _ := rec.Counts(); ps != 0 {
		t.Fatalf("%d handles still parked after attach", ps)
	}

	// Live events keep flowing on the adopted handle.
	if err := b.Publish(parkingEvent("after-attach")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if d.Event.Tuples[1].Value != "after-attach" {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live delivery never arrived after attach")
	}
}

// fakeQueryHandle is a QueryHandle whose queue the test fills by hand.
type fakeQueryHandle struct {
	name string

	mu     sync.Mutex
	dets   []QueryDetection
	notify func()
}

func (q *fakeQueryHandle) Name() string { return q.name }
func (q *fakeQueryHandle) Close()       {}
func (q *fakeQueryHandle) Take(dst []QueryDetection) ([]QueryDetection, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	dst = append(dst, q.dets...)
	q.dets = nil
	return dst, true
}
func (q *fakeQueryHandle) SetNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	pending := len(q.dets) > 0
	q.mu.Unlock()
	if pending {
		fn()
	}
}

// push queues d and announces it.
func (q *fakeQueryHandle) push(d QueryDetection) {
	q.mu.Lock()
	q.dets = append(q.dets, d)
	fn := q.notify
	q.mu.Unlock()
	fn()
}

// failRegistrar proves attach happens INSTEAD of re-registration.
type failRegistrar struct{ t *testing.T }

func (r failRegistrar) RegisterQuery(spec *QuerySpec) (QueryHandle, error) {
	r.t.Errorf("RegisterQuery(%q) called for a parked query", spec.Name)
	return nil, ErrClosed
}

// A query frame naming a parked query adopts it; buffered detections flow.
func TestRecoveredQueryAttachOverTCP(t *testing.T) {
	b := New(exactMatcher())
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	srv.SetQueryRegistrar(failRegistrar{t})

	qh := &fakeQueryHandle{name: "congestion", dets: []QueryDetection{{Query: "congestion"}}}
	rec := NewRecovered()
	rec.ParkQuery(qh)
	srv.SetRecovered(rec)

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	name, detections, err := c.Query(&QuerySpec{Name: "congestion", Kind: "sequence", Subscription: parkingSub()})
	if err != nil {
		t.Fatal(err)
	}
	if name != "congestion" {
		t.Fatalf("attach returned name %q", name)
	}
	select {
	case d := <-detections:
		if d.Query != "congestion" {
			t.Fatalf("detection = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("buffered detection never reached the reattached client")
	}
}
