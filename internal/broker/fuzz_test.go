package broker

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"time"
	"unicode/utf8"

	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// FuzzReadFrame asserts the wire decoder never panics or over-allocates on
// corrupt length prefixes and truncated or garbage JSON payloads, and that
// anything it accepts re-encodes (mirroring internal/event/fuzz_test.go
// for the parsers).
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames of each type.
	for _, fr := range []*Frame{
		{Type: FrameOK, SubscriptionID: "s1"},
		{Type: FrameError, Error: "boom"},
		{Type: FrameHello, NodeID: "10.0.0.1:7070"},
		{Type: FrameRedirect, Addr: "10.0.0.2:7070"},
		{Type: FramePublish, Event: &event.Event{
			Theme:  []string{"land transport"},
			Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}},
		}},
		{Type: FrameForwardBatch, NodeID: "n1", Events: []*event.Event{{
			ID:     "n1/e1",
			Tuples: []event.Tuple{{Attr: "a", Value: "b"}},
		}}},
		{Type: FrameForwardBatch, NodeID: "n1",
			Trace:  &telemetry.TraceContext{TraceID: "n1.1a2b.3", Parent: "n1", Sampled: true},
			Events: []*event.Event{{ID: "n1/e2", Tuples: []event.Tuple{{Attr: "a", Value: "b"}}}}},
		{Type: FrameHello, NodeID: "n2", MetricsAddr: "10.0.0.2:9090"},
		{Type: FrameSubscribe, Replay: true, Subscription: &event.Subscription{
			Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}},
		}},
		{Type: FramePublishBatch, Events: []*event.Event{
			{ID: "b1", Theme: []string{"land transport"},
				Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}}},
			{ID: "b2", Tuples: []event.Tuple{{Attr: "area", Value: "downtown"}}},
		}},
		{Type: FrameOK, Count: 2},
		{Type: FrameDeliveryBatch, At: time.Unix(1700000000, 0).UTC(),
			Event: &event.Event{ID: "d1", Theme: []string{"land transport"},
				Tuples: []event.Tuple{{Attr: "type", Value: "parking event"}}},
			Targets: []DeliveryTarget{
				{SubscriptionID: "sub-1", Score: 0.75},
				{SubscriptionID: "10.0.0.1:7070/s2", Score: 1, Replay: true},
			}},
		{Type: FrameDeliveryBatch, Event: &event.Event{Tuples: []event.Tuple{{Attr: "a", Value: "b"}}},
			Targets: []DeliveryTarget{{SubscriptionID: "s"}}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Corrupt length prefixes and truncations.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 100, '{'})
	f.Add([]byte{0, 0, 0, 2, '{', 'x'})
	f.Add([]byte{0, 0, 0, 17, '{', '"', 't', 'y', 'p', 'e', '"', ':', '"', 'o', 0xff, 'k', '"', '}', ' ', ' ', ' '}) // invalid UTF-8 in a string
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrameSize+1)
	f.Add(huge)

	// One payload buffer across every input, as a connection's read loop
	// holds it: whatever the previous input left in it must not show.
	reused := &FrameReader{}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		reused.r = bytes.NewReader(data)
		again, againErr := reused.ReadFrame()
		if (err == nil) != (againErr == nil) || !reflect.DeepEqual(fr, again) {
			t.Fatalf("reused buffer decoded %+v (%v), fresh buffer %+v (%v)", again, againErr, fr, err)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		// The declared length can never exceed the cap, so a decoded
		// frame came from at most 4+MaxFrameSize input bytes.
		if consumed := len(data) - r.Len(); consumed > 4+MaxFrameSize {
			t.Fatalf("consumed %d bytes, cap is %d", consumed, 4+MaxFrameSize)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("accepted frame %+v does not re-encode: %v", fr, err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Type != fr.Type || back.SubscriptionID != fr.SubscriptionID ||
			back.NodeID != fr.NodeID || back.Addr != fr.Addr || back.Error != fr.Error ||
			back.Count != fr.Count || len(back.Events) != len(fr.Events) ||
			back.MetricsAddr != fr.MetricsAddr || !slices.Equal(back.Targets, fr.Targets) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", fr, back)
		}
		if (back.Trace == nil) != (fr.Trace == nil) {
			t.Fatalf("trace context presence lost: %+v vs %+v", fr.Trace, back.Trace)
		}
		if back.Trace != nil && *back.Trace != *fr.Trace {
			t.Fatalf("trace context mutated: %+v vs %+v", fr.Trace, back.Trace)
		}
	})
}

// FuzzTraceContextFrame round-trips fuzzer-shaped trace contexts through
// forwardb and publishb frames: the propagated trace ID, parent, and
// sampled bit must survive the codec byte-identically, and an absent
// context must stay absent (the omitempty contract — an unsampled event
// carries zero trace bytes on the wire).
func FuzzTraceContextFrame(f *testing.F) {
	f.Add("n1.1a2b.3", "n1", true, true)
	f.Add("", "", false, false)
	f.Add("node-with-ünïcode.ff.1", "peer:7070", true, false)
	f.Add(`id"with{json}`, "p\n", false, true)
	f.Fuzz(func(t *testing.T, id, parent string, sampled, batch bool) {
		if !utf8.ValidString(id) || !utf8.ValidString(parent) {
			return
		}
		tc := &telemetry.TraceContext{TraceID: id, Parent: parent, Sampled: sampled}
		fr := &Frame{Type: FrameForwardBatch, NodeID: "n1", Trace: tc,
			Events: []*event.Event{{ID: "e1", Tuples: []event.Tuple{{Attr: "a", Value: "b"}}}}}
		if batch {
			fr = &Frame{Type: FramePublishBatch, Trace: tc,
				Events: []*event.Event{{ID: "e1", Tuples: []event.Tuple{{Attr: "a", Value: "b"}}}}}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			return // oversized fuzz strings may exceed MaxFrameSize
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("traced frame does not decode: %v", err)
		}
		if back.Trace == nil || *back.Trace != *tc {
			t.Fatalf("trace context mutated: %+v vs %+v", tc, back.Trace)
		}
		// The no-context case stays absent on the wire and after decode.
		var plain bytes.Buffer
		fr.Trace = nil
		if err := WriteFrame(&plain, fr); err != nil {
			return
		}
		if bytes.Contains(plain.Bytes(), []byte(`"trace"`)) {
			t.Fatal("untraced frame carries trace bytes")
		}
		back, err = ReadFrame(&plain)
		if err != nil || back.Trace != nil {
			t.Fatalf("untraced frame decoded with a context: %+v err %v", back.Trace, err)
		}
	})
}

// FuzzPublishBatchFrame round-trips fuzzer-shaped publishb frames through
// the wire codec: every event of the batch must survive encode/decode with
// its ID, theme, and tuples intact, in order — the batched transport must
// never reorder, merge, or drop events within a frame.
func FuzzPublishBatchFrame(f *testing.F) {
	f.Add(2, "e", "land transport\x1furban mobility", "type", "parking event")
	f.Add(0, "", "", "", "")
	f.Add(9, "burst", "", "room temperature", "20\x00c")
	f.Add(1, "uid", "\x1f\x1f", "attr\nwith\nnewlines", `va"lue`)
	f.Fuzz(func(t *testing.T, n int, id, themes, attr, value string) {
		if n < 0 || n > 64 {
			return
		}
		// JSON replaces invalid UTF-8 with U+FFFD; only valid strings are
		// expected to round-trip byte-identically.
		if !utf8.ValidString(id) || !utf8.ValidString(themes) ||
			!utf8.ValidString(attr) || !utf8.ValidString(value) {
			return
		}
		var theme []string
		if themes != "" {
			for _, tag := range bytes.Split([]byte(themes), []byte{0x1f}) {
				theme = append(theme, string(tag))
			}
		}
		evs := make([]*event.Event, n)
		for i := range evs {
			evs[i] = &event.Event{
				ID:     id + string(rune('0'+i%10)),
				Theme:  theme,
				Tuples: []event.Tuple{{Attr: attr, Value: value}},
			}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Frame{Type: FramePublishBatch, Events: evs}); err != nil {
			return // oversized batches may exceed MaxFrameSize; rejection is fine
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("encoded publishb frame does not decode: %v", err)
		}
		if back.Type != FramePublishBatch || len(back.Events) != n {
			t.Fatalf("batch shape lost: type %q, %d events, want %d", back.Type, len(back.Events), n)
		}
		for i, e := range back.Events {
			want := evs[i]
			if e.ID != want.ID || len(e.Theme) != len(want.Theme) || len(e.Tuples) != len(want.Tuples) {
				t.Fatalf("event %d mutated: %+v vs %+v", i, e, want)
			}
			for j := range e.Theme {
				if e.Theme[j] != want.Theme[j] {
					t.Fatalf("event %d theme %d mutated: %q vs %q", i, j, e.Theme[j], want.Theme[j])
				}
			}
			for j := range e.Tuples {
				if e.Tuples[j] != want.Tuples[j] {
					t.Fatalf("event %d tuple %d mutated: %+v vs %+v", i, j, e.Tuples[j], want.Tuples[j])
				}
			}
		}
	})
}
