package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"thematicep/internal/event"
	"thematicep/internal/workload"
)

// templates is how many distinct events a run replays cyclically (with
// unique IDs): a warm steady state, which is what a long-running daemon
// serves.
const templates = 256

// deliveryWindow is how many published events may be not yet fully
// delivered in the warm-up and sat phases. It sits below the daemon's
// 64-slot per-subscription queue, so drop-oldest loss is impossible by
// construction and a faster matcher cannot turn into more loss.
const deliveryWindow = 32

// spec is one traffic mix. The cruise rates are a fifth to a third of the
// seed commit's sat_events_per_s on the 2-core reference machine, frozen
// here so a later change is measured at the same offered load, and chosen so
// that one cycle of the templates is a whole number of seconds (a window of
// the cruise phase). They sit lower than the issue's 40%: when the host
// slows this box down, sat falls to half, and a stream offered at 40% of the
// calm capacity then queues without bound, which measures the host.
type spec struct {
	Name string
	// Subs is the registered population; Tune adjusts the generator config.
	Subs int
	Tune func(*workload.ScaleConfig)
	// Threshold is the daemon's -threshold and the oracle's cut.
	Threshold float64
	// Batch is the events per publish frame: 1 drives Client.Publish, more
	// drives Client.PublishBatch.
	Batch int
	// CruiseRate is the traced run's open-loop offered load in events per
	// second.
	CruiseRate float64
	// ChurnPace is the subscribe→unsubscribe cycles per second the
	// subscriber connection runs beside the cruise stream.
	ChurnPace float64
	// Durable runs the daemon on -data-dir (default -fsync always).
	Durable bool
	// Federated runs two daemons joined by -seeds: publisher on A, every
	// subscription on B.
	Federated bool
}

// Why each mix exists is recorded in BENCHMARK.json and README.md.
var specs = []spec{
	{
		Name: "fanout",
		Subs: 10000, Threshold: 0.2, Batch: 1, CruiseRate: 128, ChurnPace: 50,
	},
	{
		Name: "match_heavy",
		Subs: 8000, Threshold: 0.5, Batch: 16, CruiseRate: 256, ChurnPace: 50,
		Tune: func(c *workload.ScaleConfig) { c.ValuesPerAttr = 256; c.ApproxOnlyFraction = 0.2 },
	},
	{
		Name: "churn",
		Subs: 4000, Threshold: 0.2, Batch: 1, CruiseRate: 128, ChurnPace: 100, Durable: true,
	},
	{
		Name: "federated",
		Subs: 4000, Threshold: 0.2, Batch: 1, CruiseRate: 256, ChurnPace: 50, Federated: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// churnPool is how many spare subscriptions are generated for the
// subscribe→unsubscribe cycles; they are reused cyclically under fresh IDs.
const churnPool = 512

// fixtureSeed generates every run's subscriptions and event templates. They
// are the benchmark's fixture, like the corpus behind the index: two draws
// from the same generator differ by ±10% in candidates and deliveries per
// event (a few hot attribute/value pairs carry most matches), which moved
// sat_events_per_s by 15–20% from seed to seed and would bury the
// regressions the bounds are there to catch. What the run's -seed decides
// is the traffic over that fixture: the order the templates are replayed
// in (and so which events share a publishb frame) and the order the spare
// subscriptions are registered in.
const fixtureSeed = 7

// inputs is everything a run is driven with: the population to register,
// the spare subscriptions the churn cycles register and drop, and the event
// templates in replay order.
type inputs struct {
	Subs   []*event.Subscription
	Spare  []*event.Subscription
	Events []*event.Event
}

// generate makes a workload's inputs: the fixture, ordered by seed.
func generate(sp spec, seed int64, subs int) inputs {
	cfg := workload.DefaultScaleConfig(subs + churnPool)
	cfg.Seed = fixtureSeed
	cfg.Events = templates
	if sp.Federated {
		// A wider theme pool, so node B owns a useful share of it.
		cfg.Themes = 16
	}
	if sp.Tune != nil {
		sp.Tune(&cfg)
	}
	w := workload.GenerateScale(cfg)
	in := inputs{Subs: w.Subs[:subs], Spare: w.Subs[subs:], Events: w.Events}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.Events), func(i, j int) { in.Events[i], in.Events[j] = in.Events[j], in.Events[i] })
	rng.Shuffle(len(in.Spare), func(i, j int) { in.Spare[i], in.Spare[j] = in.Spare[j], in.Spare[i] })
	return in
}

// themesOf lists the distinct theme tags the inputs use, in first-seen
// order.
func themesOf(in inputs) []string {
	seen := map[string]bool{}
	var out []string
	add := func(tags []string) {
		for _, t := range tags {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	for _, s := range in.Subs {
		add(s.Theme)
	}
	for _, e := range in.Events {
		add(e.Theme)
	}
	return out
}

// restrictThemes rewrites every subscription and event to carry exactly one
// theme from owned, chosen by a hash of its ID (so the choice does not
// depend on the replay order): with owned being node B's share of the ring,
// every event published at A is forwarded and every match is made on B.
func restrictThemes(in inputs, owned []string) error {
	if len(owned) == 0 {
		return fmt.Errorf("node B owns none of the workload's themes")
	}
	pick := func(id string) []string {
		h := fnv.New32a()
		h.Write([]byte(id))
		return []string{owned[h.Sum32()%uint32(len(owned))]}
	}
	for _, s := range in.Subs {
		s.Theme = pick(s.ID)
	}
	for _, s := range in.Spare {
		s.Theme = pick(s.ID)
	}
	for _, e := range in.Events {
		e.Theme = pick(e.ID)
	}
	return nil
}
