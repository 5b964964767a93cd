package broker

import (
	"bytes"
	"sync"
	"sync/atomic"

	"thematicep/internal/event"
)

// maxFrameTargets caps how many subscriptions one deliverb frame names, so
// a frame stays far below MaxFrameSize however wide the fan-out is.
const maxFrameTargets = 512

// flushTargets is how many pending targets make the writer send what it has
// before draining more subscriptions: it bounds the encode buffer when a
// whole connection's queues are backed up, and is far above what one
// publish fans out to a connection.
const flushTargets = 8192

// DeliveryWriter streams the deliveries of every subscription attached to
// it, and the detections of every continuous query, onto one connection
// from a single goroutine. Streams announce pending entries through their
// SetNotify hook; the writer then Takes every announced queue whole, groups
// the deliveries by event into deliverb frames — the event is encoded once
// however many subscriptions of the connection it matched — writes one
// detect frame per detection, and hands all frames of the wake-up to send
// in one buffer.
//
// Per-stream order is the queue's: Take hands a queue over front to back,
// and a delivery never joins a frame earlier than the one holding the
// subscription's previous delivery.
type DeliveryWriter struct {
	b *Broker // counts the write stage's stops
	// send writes one buffer of whole frames carrying the given number of
	// deliveries. An error stops the writer for good.
	send func(frames []byte, deliveries int) error

	mu    sync.Mutex
	ready []*attached // announced since the writer last looked

	wake    chan struct{} // capacity 1: coalesced wake-ups
	done    chan struct{}
	stopped chan struct{}

	// Writer-goroutine state, reused across wake-ups.
	batch   []*attached
	taken   []Delivery       // one subscription's queue, as drain took it
	dets    []QueryDetection // one query's queue, as drain took it
	frames  []Frame
	byEvent map[*event.Event]int // event -> its latest open frame
	pending int                  // targets and detections in frames
	buf     bytes.Buffer
}

// attached is one stream on the writer's connection: a subscription, or a
// continuous query when query is set.
type attached struct {
	sub    SubHandle
	query  QueryHandle
	wireID string
	queued atomic.Bool // on the ready list (or about to be drained)
}

// NewDeliveryWriter starts a writer over send, the write stage of b's
// deliveries. Close stops it.
func (b *Broker) NewDeliveryWriter(send func(frames []byte, deliveries int) error) *DeliveryWriter {
	w := &DeliveryWriter{
		b:       b,
		send:    send,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		byEvent: make(map[*event.Event]int),
	}
	go w.run()
	return w
}

// Attach starts streaming sub's deliveries, named wireID on the wire.
// Deliveries already queued are sent first, so call it only once the
// subscription's acknowledgement is on the wire.
func (w *DeliveryWriter) Attach(sub SubHandle, wireID string) {
	sub.SetNotify(w.announcer(&attached{sub: sub, wireID: wireID}))
}

// AttachQuery starts streaming q's detections as detect frames, on the same
// terms as Attach: detections already queued are sent first, so call it only
// once the query's acknowledgement is on the wire.
func (w *DeliveryWriter) AttachQuery(q QueryHandle) {
	q.SetNotify(w.announcer(&attached{query: q}))
}

// announcer returns as's notify hook: it puts as on the ready list once and
// wakes the writer, never blocking the producer that calls it.
func (w *DeliveryWriter) announcer(as *attached) func() {
	return func() {
		if !as.queued.CompareAndSwap(false, true) {
			return // already announced; the writer drains after clearing the flag
		}
		w.mu.Lock()
		w.ready = append(w.ready, as)
		w.mu.Unlock()
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// Close stops the writer and waits for it to exit; call it once. Deliveries
// still queued are not sent.
func (w *DeliveryWriter) Close() {
	close(w.done)
	<-w.stopped
}

func (w *DeliveryWriter) run() {
	defer close(w.stopped)
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
		}
		w.mu.Lock()
		w.batch, w.ready = w.ready, w.batch[:0]
		w.mu.Unlock()
		for _, as := range w.batch {
			// Cleared before draining: an entry queued from here on either
			// is seen by this drain or re-announces the stream.
			as.queued.Store(false)
			w.drain(as)
			if w.pending >= flushTargets && !w.flush() {
				return
			}
		}
		clear(w.batch)
		if !w.flush() {
			return
		}
	}
}

// drain takes everything queued on as, under one queue-lock acquisition,
// into frames.
func (w *DeliveryWriter) drain(as *attached) {
	if as.query != nil {
		w.dets, _ = as.query.Take(w.dets[:0])
		for _, d := range w.dets {
			f := w.nextFrame()
			f.Type, f.QueryName, f.Events, f.Probability, f.At = FrameDetect, d.Query, d.Events, d.Probability, d.At
			w.pending++
		}
		clear(w.dets)
		return
	}
	w.taken, _ = as.sub.Take(w.taken[:0])
	last := -1 // frame of this subscription's previous delivery
	for _, d := range w.taken {
		i, open := w.byEvent[d.Event]
		if !open || i < last || len(w.frames[i].Targets) >= maxFrameTargets {
			i = w.openFrame(d)
		}
		f := &w.frames[i]
		f.Targets = append(f.Targets, DeliveryTarget{SubscriptionID: as.wireID, Score: d.Score, Replay: d.Replayed})
		last = i
		w.pending++
	}
	clear(w.taken)
}

// openFrame starts a new last deliverb frame for d's event.
func (w *DeliveryWriter) openFrame(d Delivery) int {
	f := w.nextFrame()
	f.Type, f.Event, f.At = FrameDeliveryBatch, d.Event, d.At
	i := len(w.frames) - 1
	w.byEvent[d.Event] = i
	return i
}

// nextFrame appends an empty frame, reusing the slot (and its Targets
// capacity) of an earlier wake-up when there is one.
func (w *DeliveryWriter) nextFrame() *Frame {
	i := len(w.frames)
	if i < cap(w.frames) {
		w.frames = w.frames[:i+1]
	} else {
		w.frames = append(w.frames, Frame{})
	}
	f := &w.frames[i]
	*f = Frame{Targets: f.Targets[:0]}
	return f
}

// flush encodes the pending frames into one buffer and sends it. It reports
// whether the writer may go on.
func (w *DeliveryWriter) flush() bool {
	if w.pending == 0 {
		return true
	}
	sent := 0
	for i := range w.frames {
		sent += w.encode(&w.frames[i])
		w.frames[i].Event, w.frames[i].Events = nil, nil
	}
	w.frames = w.frames[:0]
	clear(w.byEvent)
	w.pending = 0
	err := w.send(w.buf.Bytes(), sent)
	w.buf.Reset()
	return err == nil
}

// encode appends f to the buffer and returns how many targets went in. A
// frame over MaxFrameSize despite the target cap (long subscription IDs, a
// huge event) is halved until it fits; a single target that cannot fit is
// dropped, as the frame-size cap demands, into stopped{write, oversize}; so
// is a detect frame that cannot fit, uncounted, as detections are no term of
// the broker's accounting.
func (w *DeliveryWriter) encode(f *Frame) int {
	if appendFrame(&w.buf, f) == nil {
		return len(f.Targets)
	}
	if len(f.Targets) < 2 {
		w.b.ctr[cWriteOversize].Add(uint64(len(f.Targets)))
		return 0
	}
	half := len(f.Targets) / 2
	lo, hi := *f, *f
	lo.Targets, hi.Targets = f.Targets[:half], f.Targets[half:]
	return w.encode(&lo) + w.encode(&hi)
}
