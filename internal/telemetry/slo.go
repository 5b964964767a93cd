package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SLO burn-rate alert thresholds, Google-SRE style: a burn rate is the
// multiple of the error budget being consumed relative to steady-state
// (burn 1.0 exactly exhausts the budget over the budget window). Both the
// long and the short window must exceed a threshold before the status
// trips, so a brief spike that already drained from the short window
// cannot page, and a long-cold average cannot hide a fresh regression.
const (
	sloBurnWarn = 6.0  // ticket-worthy: budget gone in window/6
	sloBurnPage = 14.4 // page-worthy: 30d budget gone in ~2d pace
)

// SLOStatus is the traffic-light summary of an SLO's burn rate.
type SLOStatus string

const (
	SLOGreen  SLOStatus = "green"  // burning at or below sustainable pace
	SLOYellow SLOStatus = "yellow" // sustained burn ≥ 6× budget pace
	SLORed    SLOStatus = "red"    // sustained burn ≥ 14.4× budget pace
)

const sloSlots = 60

// SLO tracks one latency service-level objective: the fraction of events
// that must complete under a latency threshold, measured over a sliding
// window. Observations land in a ring of fixed time slots with atomic
// good/bad counters — the record path is two atomic adds and never
// allocates, so it sits on the publish hot path next to the stage
// histograms. Burn rates are computed over a short and a long window
// (window/12 and window), multi-window so alerts are both fast and
// spike-proof.
type SLO struct {
	name      string
	objective float64 // required good fraction, e.g. 0.999
	threshold time.Duration
	window    time.Duration
	clock     Clock

	slotDur  int64 // nanoseconds per ring slot
	slots    [sloSlots]sloSlot
	cur      atomic.Int64 // index of the active slot
	curStart atomic.Int64 // active slot's start, unix nanos
	rotateMu sync.Mutex
}

type sloSlot struct {
	start atomic.Int64 // unix nanos; stale slots are excluded from windows
	good  atomic.Uint64
	bad   atomic.Uint64
}

// SLOOption configures an SLO.
type SLOOption interface{ applySLO(*SLO) }

type sloClockOption struct{ c Clock }

func (o sloClockOption) applySLO(s *SLO) { s.clock = o.c }

// WithSLOClock sets the SLO's clock (default System).
func WithSLOClock(c Clock) SLOOption { return sloClockOption{c} }

type sloWindowOption time.Duration

func (o sloWindowOption) applySLO(s *SLO) { s.window = time.Duration(o) }

// WithSLOWindow sets the long burn-rate window (default 1h). The short
// window is always window/12, the slot granularity window/60.
func WithSLOWindow(d time.Duration) SLOOption { return sloWindowOption(d) }

// NewSLO builds a latency SLO: objective is the required fraction of
// events (0 < objective < 1) completing within threshold. A nil *SLO is
// valid everywhere and records nothing.
func NewSLO(name string, objective float64, threshold time.Duration, opts ...SLOOption) *SLO {
	if objective <= 0 || objective >= 1 {
		panic(fmt.Sprintf("telemetry: SLO %s objective %v outside (0,1)", name, objective))
	}
	s := &SLO{
		name:      name,
		objective: objective,
		threshold: threshold,
		window:    time.Hour,
		clock:     System,
	}
	for _, opt := range opts {
		opt.applySLO(s)
	}
	s.slotDur = int64(s.window) / sloSlots
	if s.slotDur <= 0 {
		s.slotDur = 1
	}
	now := s.clock.Now().UnixNano()
	s.curStart.Store(now)
	s.slots[0].start.Store(now)
	return s
}

// Name returns the SLO's name (its metric label).
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Observe records one event latency against the objective.
func (s *SLO) Observe(d time.Duration) { s.ObserveN(d, 1) }

// ObserveN records n events that all completed with latency d (the
// batched pipeline observes one amortized latency for a whole delivery
// batch). The fast path — no slot rotation due — is a clock read, three
// atomic loads, and one atomic add.
func (s *SLO) ObserveN(d time.Duration, n int) {
	if s == nil || n <= 0 {
		return
	}
	now := s.clock.Now().UnixNano()
	if now-s.curStart.Load() >= s.slotDur {
		s.rotate(now)
	}
	slot := &s.slots[s.cur.Load()]
	if d <= s.threshold {
		slot.good.Add(uint64(n))
	} else {
		slot.bad.Add(uint64(n))
	}
}

// rotate advances the ring to the slot containing now, zeroing every slot
// skipped during a quiet gap. Only the observer that wins the mutex
// rotates; the check is re-run under the lock.
func (s *SLO) rotate(now int64) {
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	for now-s.curStart.Load() >= s.slotDur {
		start := s.curStart.Load() + s.slotDur
		// After a long quiet gap, jump straight to the current slot
		// boundary instead of spinning through every missed slot.
		if gap := (now - start) / s.slotDur; gap >= sloSlots {
			start += (gap - sloSlots + 1) * s.slotDur
		}
		next := (s.cur.Load() + 1) % sloSlots
		s.slots[next].good.Store(0)
		s.slots[next].bad.Store(0)
		s.slots[next].start.Store(start)
		s.curStart.Store(start)
		s.cur.Store(next)
	}
}

// windowCounts sums good/bad over the slots whose start falls within the
// window ending now.
func (s *SLO) windowCounts(window time.Duration) (good, bad uint64) {
	now := s.clock.Now().UnixNano()
	if now-s.curStart.Load() >= s.slotDur {
		s.rotate(now)
	}
	cutoff := now - int64(window)
	for i := range s.slots {
		st := s.slots[i].start.Load()
		if st == 0 || st+s.slotDur <= cutoff {
			continue
		}
		good += s.slots[i].good.Load()
		bad += s.slots[i].bad.Load()
	}
	return good, bad
}

// BurnRate reports the error-budget burn multiple over the trailing
// window: observed bad fraction divided by the budget (1 - objective).
// 1.0 means the budget exactly sustains this pace; 0 means no errors or
// no traffic.
func (s *SLO) BurnRate(window time.Duration) float64 {
	if s == nil {
		return 0
	}
	good, bad := s.windowCounts(window)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - s.objective)
}

// ShortWindow returns the short burn window (long window / 12, the
// 5m-for-1h ratio from the SRE workbook).
func (s *SLO) ShortWindow() time.Duration {
	if s == nil {
		return 0
	}
	return s.window / 12
}

// LongWindow returns the long burn window.
func (s *SLO) LongWindow() time.Duration {
	if s == nil {
		return 0
	}
	return s.window
}

// Status reduces the multi-window burn rates to a traffic light: red when
// both windows burn ≥ 14.4×, yellow when both burn ≥ 6×, green otherwise.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOGreen
	}
	long := s.BurnRate(s.LongWindow())
	short := s.BurnRate(s.ShortWindow())
	switch {
	case long >= sloBurnPage && short >= sloBurnPage:
		return SLORed
	case long >= sloBurnWarn && short >= sloBurnWarn:
		return SLOYellow
	default:
		return SLOGreen
	}
}

// WriteMetrics exposes the SLO as thematicep_slo_* families: the
// configured objective and threshold, cumulative-within-window good/bad
// totals, and the short/long burn-rate gauges. All series carry an
// slo="<name>" label so several SLOs share the families through one Expo
// writer.
func (s *SLO) WriteMetrics(w io.Writer) {
	if s == nil {
		return
	}
	lbl := []Label{{"slo", s.name}}
	header(w, "thematicep_slo_objective", "gauge", "Required good-event fraction of the SLO.")
	fmt.Fprintf(w, "thematicep_slo_objective%s %s\n", formatLabels(lbl), formatFloat(s.objective))
	header(w, "thematicep_slo_threshold_seconds", "gauge", "Latency bound defining a good event.")
	fmt.Fprintf(w, "thematicep_slo_threshold_seconds%s %s\n", formatLabels(lbl), formatFloat(s.threshold.Seconds()))

	good, bad := s.windowCounts(s.window)
	header(w, "thematicep_slo_window_good", "gauge", "Good events observed in the trailing long window.")
	fmt.Fprintf(w, "thematicep_slo_window_good%s %d\n", formatLabels(lbl), good)
	header(w, "thematicep_slo_window_bad", "gauge", "Bad (over-threshold) events observed in the trailing long window.")
	fmt.Fprintf(w, "thematicep_slo_window_bad%s %d\n", formatLabels(lbl), bad)

	header(w, "thematicep_slo_burn_rate", "gauge", "Error-budget burn multiple over the trailing window (1.0 = sustainable pace).")
	for _, win := range []struct {
		label string
		d     time.Duration
	}{{"short", s.ShortWindow()}, {"long", s.LongWindow()}} {
		fmt.Fprintf(w, "thematicep_slo_burn_rate%s %s\n",
			formatLabels(lbl, Label{"window", win.label}), formatFloat(s.BurnRate(win.d)))
	}

	header(w, "thematicep_slo_status", "gauge", "Traffic-light SLO status: 0 green, 1 yellow, 2 red.")
	var code int
	switch s.Status() {
	case SLOYellow:
		code = 1
	case SLORed:
		code = 2
	}
	fmt.Fprintf(w, "thematicep_slo_status%s %d\n", formatLabels(lbl), code)
}
