package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
	"unicode/utf8"

	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// The wire protocol is length-prefixed JSON: a 4-byte big-endian frame
// length followed by one JSON-encoded Frame. It is intentionally simple —
// the paper's contribution is the matching model, not the transport — but
// complete: publish/subscribe/unsubscribe requests, acknowledgements, and
// asynchronous delivery frames share one connection.

// Frame types.
const (
	FramePublish     = "publish"
	FrameSubscribe   = "subscribe"
	FrameUnsubscribe = "unsubscribe"
	FrameDelivery    = "delivery"
	FrameOK          = "ok"
	FrameError       = "error"

	// FrameDeliveryBatch is what brokers put on the wire for matches: the
	// event once (in Event), one admission timestamp (At, the first
	// target's), and in Targets every subscription of the connection the
	// event goes to. The one-target delivery frame above is neither sent
	// nor decoded by anything in the tree.
	FrameDeliveryBatch = "deliverb"

	// FramePublishBatch carries many events in one frame (in Events) and is
	// acknowledged by a single ok frame whose Count echoes how many events
	// were admitted — admission is all-or-nothing, so an error frame means
	// none were.
	FramePublishBatch = "publishb"

	// Federation frames (internal/cluster). A peer broker opens a
	// connection with a hello identifying its node; redirect tells a client
	// which broker owns its subscription's themes.
	FrameHello    = "hello"
	FrameRedirect = "redirect"

	// FrameForwardBatch is the federation analogue of publishb and its only
	// forward frame: the events of one publish (in Events, a single event
	// for a serial publish) that one shard owner's theme sets overlap, sent
	// by the publishing broker to that owner.
	FrameForwardBatch = "forwardb"

	// Liveness frames for federation links: each side pings on an
	// interval and answers pings with pongs, so a silent (stalled or
	// partitioned) link is distinguishable from an idle one and can be
	// dropped by the read deadline.
	FramePing = "ping"
	FramePong = "pong"

	// Continuous-query frames (internal/query). A query frame registers a
	// named CEP pattern fed by a thematic subscription; detect frames, one
	// detection each, stream its detections back through the connection's
	// delivery writer, beside the deliverb frames of its subscriptions. A
	// clustered broker answers query with redirect when
	// another node owns the feeding subscription's theme shard.
	FrameQuery  = "query"
	FrameDetect = "detect"
)

// MaxFrameSize bounds a frame's encoded size; larger frames are rejected to
// protect both sides from corrupt length prefixes.
const MaxFrameSize = 1 << 20

// Frame is one protocol message.
type Frame struct {
	Type           string              `json:"type"`
	Event          *event.Event        `json:"event,omitempty"`
	Subscription   *event.Subscription `json:"subscription,omitempty"`
	SubscriptionID string              `json:"subscriptionId,omitempty"`
	Score          float64             `json:"score,omitempty"`
	Replay         bool                `json:"replay,omitempty"`
	Error          string              `json:"error,omitempty"`
	// NodeID identifies the sending broker on federation frames (hello,
	// forwardb).
	NodeID string `json:"nodeId,omitempty"`
	// Addr is the target broker address on redirect frames.
	Addr string `json:"addr,omitempty"`
	// At is the broker's admission timestamp on delivery frames, letting
	// downstream consumers (the query engine, latency probes) measure
	// event-to-detection latency.
	At time.Time `json:"at,omitempty"`
	// Query is the continuous-query definition on query frames.
	Query *QuerySpec `json:"query,omitempty"`
	// QueryName names the continuous query on detect frames, on query
	// acknowledgements, and on unsubscribe frames that cancel a query.
	QueryName string `json:"queryName,omitempty"`
	// Events are a detection's constituent events on detect frames, and the
	// batch payload on publishb and forwardb frames.
	Events []*event.Event `json:"events,omitempty"`
	// Count echoes the admitted batch size on publishb acknowledgements.
	Count int `json:"count,omitempty"`
	// Probability is the detection's combined probability on detect frames.
	Probability float64 `json:"probability,omitempty"`
	// Trace is the propagated trace context on forwardb (and client
	// publishb) frames: present only when the carried events are
	// trace-sampled at the sender, so the receiving broker continues the
	// same cross-peer trace instead of making an independent sampling
	// decision. It applies to the whole batch, keyed by the first event.
	Trace *telemetry.TraceContext `json:"trace,omitempty"`
	// MetricsAddr advertises the sending node's metrics listen address on
	// hello frames, so peers can serve a cluster-wide scrape map
	// (/debug/peers) without extra configuration.
	MetricsAddr string `json:"metricsAddr,omitempty"`
	// Members piggybacks the sender's full membership view on hello, ping,
	// and pong frames: the SWIM-style gossip exchange that keeps every
	// federation member's ring converging on the same live member set
	// without a separate gossip transport.
	Members []MemberInfo `json:"members,omitempty"`
	// Targets are the receiving subscriptions of a deliverb frame, in an
	// order that keeps every subscription's deliveries in queue order
	// across the frames of a connection.
	Targets []DeliveryTarget `json:"targets,omitempty"`
}

// DeliveryTarget is one receiving subscription of a deliverb frame.
type DeliveryTarget struct {
	SubscriptionID string  `json:"i"`
	Score          float64 `json:"s"`
	Replay         bool    `json:"r,omitempty"`
}

// MemberInfo is one row of the gossiped membership view. State uses the
// cluster package's encoding: 0 alive, 1 suspect, 2 dead. Incarnation is
// the member's self-asserted epoch — a member refutes a suspect/dead rumor
// about itself by re-announcing alive under a higher incarnation, and
// receivers resolve conflicting rumors by (incarnation, state) precedence.
type MemberInfo struct {
	Node        string `json:"node"`
	Metrics     string `json:"metrics,omitempty"`
	Incarnation uint64 `json:"inc"`
	State       uint8  `json:"state,omitempty"`
}

// QuerySpec defines one continuous query: a named CEP pattern over the
// stream selected by a thematic subscription. The subscription routes and
// scores events exactly like a regular subscription — its match score
// becomes the constituent probability — while Kind, Window, and the
// step filters shape the composite pattern evaluated on the owning shard.
type QuerySpec struct {
	// Name identifies the query; detections carry it back.
	Name string `json:"name"`
	// Kind selects the pattern: "sequence", "conjunction", "negation", or
	// "count".
	Kind string `json:"kind"`
	// Subscription selects and scores the feeding event stream (themes +
	// predicates). In cluster mode its first theme tag decides the owning
	// shard.
	Subscription *event.Subscription `json:"subscription"`
	// Window is the pattern's sliding time window.
	Window time.Duration `json:"windowNs"`
	// Threshold suppresses detections whose combined probability falls
	// below it.
	Threshold float64 `json:"threshold,omitempty"`
	// MinExpected is the expected-count firing threshold for count queries.
	MinExpected float64 `json:"minExpected,omitempty"`
	// Steps are the pattern's constituent filters: ordered steps for
	// sequence, unordered for conjunction, [trigger, absent] for negation,
	// and an optional single filter for count (matching everything when
	// empty).
	Steps []QueryStep `json:"steps,omitempty"`
}

// QueryStep is one constituent filter of a continuous query, matching
// events whose attribute equals a value (canonical comparison), or merely
// carries the attribute when Value is empty.
type QueryStep struct {
	Attr  string `json:"attr"`
	Value string `json:"value,omitempty"`
}

// QueryDetection is one completed pattern instance streamed back to the
// client that registered the query.
type QueryDetection struct {
	// Query is the registered query's name.
	Query string
	// Probability is the combined probability of the detection.
	Probability float64
	// Events are the constituent events in pattern order.
	Events []*event.Event
	// At is when the engine emitted the detection.
	At time.Time
}

// appendFrame encodes f onto buf as one length-prefixed frame: the header
// is reserved up front and patched once the payload length is known, so the
// payload is never copied behind it. On error buf is left as it was.
func appendFrame(buf *bytes.Buffer, f *Frame) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0})
	if err := json.NewEncoder(buf).Encode(f); err != nil {
		buf.Truncate(start)
		return fmt.Errorf("wire: encode: %w", err)
	}
	buf.Truncate(buf.Len() - 1) // Encode's trailing newline is not part of the frame
	n := buf.Len() - start - 4
	if n > MaxFrameSize {
		buf.Truncate(start)
		return fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start:], uint32(n))
	return nil
}

// frameBufs recycles WriteFrame's encode buffers.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		frameBufs.Put(buf)
	}()
	if err := appendFrame(buf, f); err != nil {
		return err
	}
	// Header and payload go out in one Write so concurrent writers sharing
	// a conn cannot interleave partial frames, and a frame costs one
	// syscall instead of two.
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads and decodes one frame: the one-shot form, which
// allocates the payload buffer it reads into. A loop that reads a
// connection's every frame uses a FrameReader instead.
func ReadFrame(r io.Reader) (*Frame, error) {
	return (&FrameReader{r: r}).ReadFrame()
}

// FrameReader reads the frames of one connection through one payload
// buffer, grown to the largest frame seen (at most MaxFrameSize) and reused
// for every later one: a decoded Frame holds none of the bytes it was
// decoded from — encoding/json copies every string it keeps — so the buffer
// is garbage the moment the decode returns, and allocating it afresh per
// frame was a quarter of a busy daemon's garbage. Not safe for concurrent
// use.
type FrameReader struct {
	r       io.Reader
	payload []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame reads and decodes the next frame. The returned Frame does not
// alias the reader's buffer.
func (fr *FrameReader) ReadFrame() (*Frame, error) {
	var header [4]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(header[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	// encoding/json replaces invalid UTF-8 inside strings with U+FFFD
	// instead of failing, and no writer emits it: a payload that is not
	// valid UTF-8 was corrupted in flight, and must not decode into a
	// plausible frame with a mangled ID or address in it.
	if !utf8.Valid(payload) {
		return nil, fmt.Errorf("wire: decode: payload is not valid UTF-8")
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return &f, nil
}
