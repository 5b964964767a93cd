package main

import (
	"bytes"
	"runtime"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// wire times the broker package's frame codec on the frames this workload
// puts on the wire: the publish frame as the publisher sends it (one event,
// or a publishb frame of Batch events) and the delivery frame the daemon
// sends back per match.
func (p *probes) wire() {
	n := len(p.in.Events)
	var publishes, deliveries []*broker.Frame
	for lo := 0; lo+p.sp.Batch <= n; lo += p.sp.Batch {
		if p.sp.Batch == 1 {
			publishes = append(publishes, &broker.Frame{Type: broker.FramePublish, Event: stamped(p.in.Events[lo], lo)})
			continue
		}
		f := &broker.Frame{Type: broker.FramePublishBatch}
		for t := lo; t < lo+p.sp.Batch; t++ {
			f.Events = append(f.Events, stamped(p.in.Events[t], t))
		}
		publishes = append(publishes, f)
	}
	at := time.Now()
	for t, e := range p.in.Events {
		deliveries = append(deliveries, &broker.Frame{
			Type: broker.FrameDelivery, Event: stamped(e, t),
			SubscriptionID: p.in.Subs[t%len(p.in.Subs)].ID, Score: 0.5 + float64(t)/1000, At: at,
		})
	}

	codec := func(name string, frames []*broker.Frame) (enc, dec time.Duration, size float64) {
		bufs := make([]bytes.Buffer, len(frames))
		enc = p.each("broker.wire.encode_"+name, len(frames), func(i int) {
			broker.WriteFrame(&bufs[i], frames[i]) // a bytes.Buffer write cannot fail
		})
		total := 0
		for i := range bufs {
			total += bufs[i].Len()
		}
		dec = p.each("broker.wire.decode_"+name, len(frames), func(i int) {
			if _, err := broker.ReadFrame(bytes.NewReader(bufs[i].Bytes())); err != nil {
				panic(err) // decoding what WriteFrame just produced: a bug, not an input
			}
		})
		return enc, dec, float64(total) / float64(len(frames))
	}
	encP, decP, sizeP := codec("publish", publishes)
	encD, decD, sizeD := codec("delivery", deliveries)

	// Heap allocations for one delivery's trip through the codec: encode on
	// the daemon plus decode on the client.
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range deliveries {
		buf.Reset()
		broker.WriteFrame(&buf, f)
		broker.ReadFrame(&buf)
	}
	runtime.ReadMemStats(&after)

	p.set("broker.wire.encode_publish_us", us(encP), "us", len(publishes))
	p.set("broker.wire.decode_publish_us", us(decP), "us", len(publishes))
	p.set("broker.wire.encode_delivery_us", us(encD), "us", len(deliveries))
	p.set("broker.wire.decode_delivery_us", us(decD), "us", len(deliveries))
	p.set("broker.wire.publish_frame_bytes", sizeP, "B", len(publishes))
	p.set("broker.wire.delivery_frame_bytes", sizeD, "B", len(deliveries))
	p.set("broker.wire.allocs_per_delivery", float64(after.Mallocs-before.Mallocs)/float64(len(deliveries)), "count", len(deliveries))
}

// stamped is template e under the kind of ID the run publishes it with.
func stamped(e *event.Event, seq int) *event.Event {
	return &event.Event{ID: eventID(seq), Theme: e.Theme, Tuples: e.Tuples}
}
