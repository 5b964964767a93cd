package broker

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/telemetry"
)

// closingEngine runs a hook from inside the score stage of the first sweep
// after it is armed: the subscribers the hook closes are candidates of that
// publish, closed between enumerate and enqueue.
type closingEngine struct {
	Engine
	hook *atomic.Pointer[func()]
}

func (c closingEngine) ScoreBatchInArena(a *matcher.BatchArena, subs []*matcher.PreparedSubscription, pe *matcher.PreparedEvent, out []float64) []float64 {
	fire(c.hook)
	return c.Engine.ScoreBatchInArena(a, subs, pe, out)
}

func fire(hook *atomic.Pointer[func()]) {
	if f := hook.Swap(nil); f != nil {
		(*f)()
	}
}

// TestConservation checks the accounting identities (publish.go) as a
// seeded property over the TestPublishOracle population: every engine row
// of the oracle plus a plain-Matcher row, queues of size 1 and 4, a third of
// the subscriptions behind a gate that refuses every other event,
// subscribers closed from inside a publish's score stage and by a goroutine
// racing the publisher, replay on subscribe, and publishes refused by
// validation, by load shedding and by a Drain or Close racing a publisher. Once the broker is
// quiescent all three identities hold exactly for every seed, with the
// events handed in as the test counted them; across the seeds every stop
// reason of the chain's admit, score and deliver stages occurs.
func TestConservation(t *testing.T) {
	type row struct {
		plain   bool
		bs, par int
		pruning bool
	}
	var rows []row
	for _, bs := range []int{1, 7, 64} {
		for _, par := range []int{1, 4} {
			for _, pruning := range []bool{true, false} {
				rows = append(rows, row{bs: bs, par: par, pruning: pruning})
			}
		}
	}
	rows = append(rows, row{plain: true, bs: 7, par: 4, pruning: true})

	m := thematicMatcher(t)
	seen := map[string]float64{}                // stop reasons and replay matches over all seeds
	for seed := 0; seed < 2*len(rows); seed++ { // two passes: every row meets both queue sizes
		r := rows[seed%len(rows)]
		queue := []int{1, 4}[seed%2]
		t.Run(fmt.Sprintf("seed=%d/plain=%v/bs=%d/par=%d/pruning=%v/queue=%d", seed, r.plain, r.bs, r.par, r.pruning, queue), func(t *testing.T) {
			hook := new(atomic.Pointer[func()])
			var subject Matcher = closingEngine{Engine: thematicMatcher(t), hook: hook}
			if r.plain {
				subject = MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
					fire(hook)
					return m.Score(s, e)
				})
			}
			b := New(subject, WithQueueSize(queue), WithReplayBuffer(8), WithShedWatermark(1),
				WithMatchParallelism(r.par), WithPruning(r.pruning))
			subs, events := mixedThemeWorkload(t, int64(seed))

			var handles []*Subscriber
			subscribe := func(ss []*event.Subscription, opts ...SubscribeOption) {
				for i, s := range ss {
					o := opts[:len(opts):len(opts)]
					if i%3 == 0 {
						n := 0 // the gate runs under the queue lock
						o = append(o, Gate(func(*event.Event) bool { n++; return n%2 == 0 }))
					}
					h, err := b.Subscribe(s, o...)
					if err != nil {
						t.Fatalf("subscribe %q: %v", s.ID, err)
					}
					handles = append(handles, h)
				}
			}
			var in uint64 // events handed to the broker, admitted or not
			publish := func(evs []*event.Event) error {
				in += uint64(len(evs))
				if len(evs) == 1 {
					return b.Publish(evs[0])
				}
				return b.PublishBatch(evs)
			}
			publishAll := func(evs []*event.Event) {
				for lo := 0; lo < len(evs); lo += r.bs {
					if err := publish(evs[lo:min(lo+r.bs, len(evs))]); err != nil {
						t.Fatalf("publish: %v", err)
					}
				}
			}

			third := len(events) / 3
			subscribe(subs)
			publishAll(events[:third])
			late := make([]*event.Subscription, 0, 10)
			for i, s := range subs[:10] {
				cp := *s
				cp.ID = fmt.Sprintf("late-%d", i)
				late = append(late, &cp)
			}
			subscribe(late, WithReplay(true))

			// Every fourth subscriber closes inside the next publish's score
			// stage; every seventh is closed by a goroutine racing the
			// publisher.
			closeFrom := func(k, off int) func() {
				victims := append([]*Subscriber(nil), handles...)
				return func() {
					for j := off; j < len(victims); j += k {
						victims[j].Close()
					}
				}
			}
			inScore := closeFrom(4, 1)
			hook.Store(&inScore)
			var racer sync.WaitGroup
			racer.Add(1)
			go func() { defer racer.Done(); closeFrom(7, 2)() }()
			publishAll(events[third : 2*third])
			racer.Wait()

			for _, bad := range [][]*event.Event{
				{events[0], nil},         // a nil member refuses the whole batch
				{{Theme: []string{"x"}}}, // no tuples
				{events[1], {Tuples: []event.Tuple{{Attr: "a", Value: ""}}}}, // an empty term
			} {
				if err := publish(bad); err == nil {
					t.Fatalf("invalid publish %v admitted", bad)
				}
			}
			if b.sem != nil {
				// A second publish in flight and every helper busy: the next one
				// is shed.
				b.inflight.Add(1)
				for range cap(b.sem) {
					b.sem <- struct{}{}
				}
				if err := publish(events[:min(r.bs, len(events))]); !errors.Is(err, ErrOverloaded) {
					t.Fatalf("publish into a saturated pipeline: %v, want ErrOverloaded", err)
				}
				for range cap(b.sem) {
					<-b.sem
				}
				b.inflight.Add(-1)
			}

			// Drain (odd seeds) or Close (even seeds) races a publisher; the
			// publishes it refuses are stopped at admit.
			var pub sync.WaitGroup
			pub.Add(1)
			go func() {
				defer pub.Done()
				for lo := 2 * third; lo < len(events); lo += r.bs {
					publish(events[lo:min(lo+r.bs, len(events))])
				}
			}()
			if seed%2 == 1 {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				b.Drain(ctx) // nobody consumes: the queues outlast the deadline, and Drain closes
				cancel()
			} else {
				b.Close()
			}
			pub.Wait()
			if err := publish(events[:1]); err == nil {
				t.Fatal("publish after Drain/Close admitted")
			}

			var sb strings.Builder
			b.WriteMetrics(telemetry.NewExpo(&sb))
			fams, err := telemetry.ParseExposition(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			for i, bal := range Conservation(fams) {
				if bal.Up != bal.Down {
					t.Errorf("%s: %v != %v", bal.Identity, bal.Up, bal.Down)
				}
				if i == 0 && bal.Up != float64(in) {
					t.Errorf("events in counted %v, the test handed in %d", bal.Up, in)
				}
			}
			for _, f := range fams {
				for _, s := range f.Samples {
					if f.Name == stoppedFamily {
						seen[s.Labels["stage"]+"/"+s.Labels["reason"]] += s.Value
					} else if f.Name == "thematicep_broker_replay_matched_total" {
						seen["replay"] += s.Value
					} else if f.Name == "thematicep_broker_shed_total" {
						seen["shed"] += s.Value
					}
				}
			}
		})
	}
	for _, term := range []string{"shed", "admit/draining", "admit/closed", "admit/invalid", "score/zero",
		"score/bound", "score/below_threshold", "deliver/gate_refused", "deliver/closed", "replay"} {
		if seen[term] == 0 {
			t.Errorf("no seed exercised %q; the property is vacuous there", term)
		}
	}
}
