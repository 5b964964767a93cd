package main

// The end-to-end driver. It reaches the system under test only as a user
// can: thematicd flags, broker.Dial/Client, event values and the workload
// generator's output. It imports nothing else from internal/.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

// Fixed loopback ports for the federated pair: shard ownership is a hash of
// the node addresses, so fixed addresses give every run the same ring.
const (
	fedAddrA = "127.0.0.1:17471"
	fedAddrB = "127.0.0.1:17472"
)

// windowWait is how long the closed loop waits on a full delivery window
// before declaring a delivery lost; quiesceWait is the same for the tail of
// a phase.
const (
	windowWait  = 10 * time.Second
	quiesceWait = 5 * time.Second
)

// env is where a run finds its binary and keeps its files.
type env struct {
	bin       string // thematicd
	outDir    string
	indexPath string
}

// ensureIndex has a daemon build the index cache once, outside any timing:
// every later launch loads it with -index.
func (e env) ensureIndex() error {
	if _, err := os.Stat(e.indexPath); err == nil {
		return nil
	}
	tmp := e.indexPath + ".tmp"
	os.Remove(tmp)
	d, err := startDaemon(e.bin, filepath.Join(e.outDir, "index-build.log"), "-addr", "127.0.0.1:0", "-index", tmp)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	return os.Rename(tmp, e.indexPath)
}

// session is one workload's live topology: its daemons, the publisher and
// subscriber connections (never more than these two), and the recorder the
// subscriber side feeds.
type session struct {
	env      env
	sp       spec
	in       inputs
	rec      *recorder
	tr       *tracer
	tag      string
	args     [][]string // per daemon, for restart
	dataDirs []string   // of durable daemons

	daemons  []*daemon
	pub, sub *broker.Client
	recv     sync.WaitGroup
	next     int // template cursor, cycling
	churnSeq int
}

func (s *session) pubAddr() string { return s.daemons[0].addr }
func (s *session) subAddr() string { return s.daemons[len(s.daemons)-1].addr }

// daemonArgs builds each daemon's flags: only what the workload needs on
// top of the defaults.
func (s *session) daemonArgs() error {
	common := []string{"-index", s.env.indexPath}
	if s.sp.Threshold != 0.2 {
		common = append(common, "-threshold", strconv.FormatFloat(s.sp.Threshold, 'g', -1, 64))
	}
	addrs := []string{"127.0.0.1:0"}
	if s.sp.Federated {
		addrs = []string{fedAddrA, fedAddrB}
	}
	s.args, s.dataDirs = nil, nil
	for i, addr := range addrs {
		m, err := freeAddr()
		if err != nil {
			return err
		}
		a := append([]string{"-addr", addr, "-metrics", m}, common...)
		if s.sp.Federated {
			a = append(a, "-seeds", addrs[1-i])
		}
		if s.sp.Durable {
			dir := filepath.Join(s.env.outDir, fmt.Sprintf("%s.data%d", s.tag, i))
			a = append(a, "-data-dir", dir)
			s.dataDirs = append(s.dataDirs, dir)
		}
		s.args = append(s.args, a)
	}
	return nil
}

func (s *session) launch() error {
	s.daemons = nil
	// The subscriber's node (last) starts first so the publisher's node
	// finds its seed listening.
	for i := len(s.args) - 1; i >= 0; i-- {
		d, err := startDaemon(s.env.bin, filepath.Join(s.env.outDir, fmt.Sprintf("%s.daemon%d.log", s.tag, i)), s.args[i]...)
		if err != nil {
			s.killAll()
			return err
		}
		s.daemons = append([]*daemon{d}, s.daemons...)
	}
	return nil
}

func (s *session) killAll() {
	for _, d := range s.daemons {
		d.kill()
	}
	s.daemons = nil
}

// setup is the timed part of bringing a workload up: exec the daemon(s)
// and register the whole population over the wire. It returns exec → last
// subscribe acknowledged.
func (s *session) setup() (time.Duration, error) {
	for _, dir := range s.dataDirs {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if err := s.launch(); err != nil {
		return 0, err
	}
	if s.sp.Federated {
		owned, err := s.probeOwnership()
		if err != nil {
			return 0, err
		}
		if err := restrictThemes(s.in, owned); err != nil {
			return 0, err
		}
	}
	var err error
	if s.sub, err = broker.Dial(s.subAddr()); err != nil {
		return 0, err
	}
	for i, sub := range s.in.Subs {
		_, ch, err := s.sub.Subscribe(sub, false)
		if err != nil {
			return 0, fmt.Errorf("subscribe %s: %w", sub.ID, err)
		}
		s.recv.Add(1)
		go func(idx int32) {
			defer s.recv.Done()
			for d := range ch {
				s.rec.onDelivery(idx, d.Event.ID)
			}
		}(int32(i))
	}
	return time.Since(t0), nil
}

// probeOwnership learns node B's share of the theme ring from outside:
// probe-subscribe each theme at A and read where A redirects it. It retries
// until A has met B (before that A owns everything and redirects nothing).
func (s *session) probeOwnership() ([]string, error) {
	c, err := broker.Dial(s.pubAddr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	themes := themesOf(s.in)
	probe := &event.Subscription{Predicates: []event.Predicate{{Attr: "type", Value: "probe"}}}
	deadline := time.Now().Add(startTimeout)
	for {
		var owned []string
		for _, th := range themes {
			probe.ID, probe.Theme = "probe-"+th, []string{th}
			id, _, err := c.Subscribe(probe, false)
			var redir *broker.RedirectError
			switch {
			case errors.As(err, &redir):
				if redir.Addr == s.subAddr() {
					owned = append(owned, th)
				}
			case err != nil:
				return nil, fmt.Errorf("probe theme %q: %w", th, err)
			default:
				if err := c.Unsubscribe(id); err != nil {
					return nil, err
				}
			}
		}
		if len(owned) > 0 {
			return owned, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node A never redirected a theme to B within %s", startTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openPublisher dials the publisher connection. It is dialed only when
// publishing is about to start: the daemon drops a connection that sends no
// frame within its 10 s handshake timeout, and the oracle runs in between.
// On the federated pair it first waits until A's forward link to B is up,
// so the warm-up's first events are forwarded rather than shed by an
// opening breaker.
func (s *session) openPublisher() error {
	if s.sp.Federated {
		deadline := time.Now().Add(startTimeout)
		for {
			sc, err := s.daemons[0].scrape()
			if err == nil && sc["thematicep_cluster_peers_connected"] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node A's link to B not connected within %s", startTimeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var err error
	s.pub, err = broker.Dial(s.pubAddr())
	return err
}

// discard throws a set-up away: daemons killed (a durable one must not
// journal the unsubscribe storm of its connections closing), connections
// closed.
func (s *session) discard() {
	s.killAll()
	s.closeClients()
}

func (s *session) closeClients() {
	if s.pub != nil {
		s.pub.Close()
	}
	if s.sub != nil {
		s.sub.Close()
	}
	s.recv.Wait()
	s.pub, s.sub = nil, nil
}

// teardown reads each daemon's peak RSS, then stops them gracefully. The
// daemons go first: a durable one seals its journal on SIGTERM, so the
// registrations survive the connections closing.
func (s *session) teardown() (rssMB float64, err error) {
	for _, d := range s.daemons {
		mb, e := d.peakRSSMB()
		if e != nil {
			err = e
		}
		rssMB += mb
	}
	for _, d := range s.daemons {
		if e := d.stop(); e != nil {
			err = e
		}
	}
	s.daemons = nil
	s.closeClients()
	return rssMB, err
}

// restart execs the daemon(s) again with the same flags (and the same
// -data-dir, when durable) and returns exec → first publish acknowledged.
func (s *session) restart() (time.Duration, error) {
	t0 := time.Now()
	if err := s.launch(); err != nil {
		return 0, err
	}
	defer func() {
		for _, d := range s.daemons {
			d.stop()
		}
		s.daemons = nil
	}()
	c, err := broker.Dial(s.pubAddr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	e := *s.in.Events[0]
	e.ID = "restart"
	if err := c.Publish(&e); err != nil {
		return 0, fmt.Errorf("publish after restart: %w", err)
	}
	return time.Since(t0), nil
}

// controlPhase replays a short stretch of the cruise stream with the
// publisher dialed straight to the subscriber's node: the same stream
// minus the forward hop.
func (s *session) controlPhase() (*phase, error) {
	s.pub.Close()
	var err error
	if s.pub, err = broker.Dial(s.subAddr()); err != nil {
		return nil, err
	}
	p, _, err := s.cruise(controlSeconds * time.Second)
	return p, err
}

// cpuTicks sums the daemons' CPU so far.
func (s *session) cpuTicks() (int64, error) {
	var sum int64
	for _, d := range s.daemons {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// phase is what one measured phase produced.
type phase struct {
	start, end  int64   // ns on the recorder's clock
	edges       []int64 // window edges: one window per cycle of the templates
	perWindow   int     // events published per window
	events      int
	expected    int // deliveries the oracle expects
	publishErrs int
	firstErr    error // the first failed publish call's error
	mism        mismatch
	deliveries  []sample
	completions []sample
	acks        []sample  // at = ack, dur = ack - intended
	calls       []sample  // at = ack, dur = ack - call start
	late        []sample  // open loop only: send start - intended
	cpuPerEvent []float64 // per window: daemon CPU ms ÷ events published
	stalled     bool      // the delivery window never reopened
}

func (p *phase) attempted() int { return p.events + p.expected }
func (p *phase) failed() int    { return p.publishErrs + p.mism.total() }

// publish sends one frame's worth of templates and records the
// acknowledgement. intended is when the frame was due (the open loop's
// schedule); a negative value means "now" (the closed loop sends when the
// window allows). gated marks the events holding a delivery-window token.
func (s *session) publish(p *phase, intended int64, gated []bool) {
	n := s.sp.Batch
	sent := s.rec.now()
	if intended < 0 {
		intended = sent
	}
	var parent int32
	name := "client.publish"
	if n > 1 {
		name = "client.publishb"
		parent = s.tr.begin(0, "batch", "", sent)
	}
	batch := make([]*event.Event, n)
	var span int32
	for i := range batch {
		t := s.next % len(s.in.Events)
		s.next++
		var seq int
		seq, span = s.rec.register(t, intended, sent, gated != nil && gated[i], parent)
		tmpl := s.in.Events[t]
		batch[i] = &event.Event{ID: eventID(seq), Theme: tmpl.Theme, Tuples: tmpl.Tuples}
	}
	var err error
	if n == 1 {
		err = s.pub.Publish(batch[0])
		parent = span // the call is a child of its one event
	} else {
		err = s.pub.PublishBatch(batch)
	}
	ack := s.rec.now()
	s.tr.add(parent, name, "", sent, ack)
	if n > 1 {
		s.tr.end(parent, ack)
	}
	p.events += n
	if err != nil {
		p.publishErrs += n
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.acks = append(p.acks, sample{at: ack, dur: ack - intended})
	p.calls = append(p.calls, sample{at: ack, dur: ack - sent})
}

// finish closes a phase: wait for the tail, verify against the oracle.
func (s *session) finish(p *phase, from int) {
	s.rec.quiesce(quiesceWait)
	p.mism, p.expected, p.deliveries, p.completions = s.rec.cut(from)
}

// closedLoop publishes on acknowledgement, gated by the delivery window,
// until count events are out (count > 0) or dur has passed. With solo set it
// also waits until every earlier event is fully delivered before it sends
// the next frame: one frame in flight, back to back. Each pass over the
// templates is one window; the daemons' CPU is read at every edge.
func (s *session) closedLoop(dur time.Duration, count int, solo bool) (*phase, error) {
	p := &phase{start: s.rec.now(), perWindow: len(s.in.Events)}
	p.edges = []int64{p.start}
	from := s.rec.count()
	deadline := p.start + int64(dur)
	gated := make([]bool, s.sp.Batch)
	ticks, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	edge := func(at int64, events int) error {
		t, err := s.cpuTicks()
		p.edges = append(p.edges, at)
		p.cpuPerEvent = append(p.cpuPerEvent, float64(t-ticks)*msPerTick/float64(max(events, 1)))
		ticks = t
		return err
	}
	for {
		if p.events >= len(p.edges)*p.perWindow { // a whole cycle is out
			if err := edge(s.rec.now(), p.perWindow); err != nil {
				return nil, err
			}
		}
		if count > 0 && p.events >= count {
			break
		}
		if count == 0 && s.rec.now() >= deadline {
			break
		}
		// Take the window tokens for the frame's events before stamping
		// the send time: waiting on the window is the loop's pacing, not
		// latency.
		need := 0
		for i := range gated {
			gated[i] = len(s.rec.expected[(s.next+i)%len(s.in.Events)]) > 0
			if gated[i] {
				need++
			}
		}
		if !s.rec.acquire(need, windowWait) || (solo && !s.rec.waitIdle(windowWait)) {
			p.stalled = true
			break
		}
		s.publish(p, -1, gated)
	}
	p.end = s.rec.now()
	if len(p.edges) == 1 { // shorter than a cycle: the phase is the window
		p.perWindow = p.events
		if err := edge(p.end, p.events); err != nil {
			return nil, err
		}
	}
	s.finish(p, from)
	return p, nil
}

// churn is what the subscribe→unsubscribe cycles produced.
type churn struct {
	subscribes []sample // at = ack, dur = Subscribe call → ack
	cycles     []sample // at = unsubscribe ack, dur = whole cycle
	calls      int
	errs       int
}

// cruise publishes open loop at the workload's fixed rate for dur, every
// latency measured from the intended send time, while the subscriber
// connection runs subscribe→unsubscribe cycles beside the stream. Only the
// traced run cruises: see README.md for why the gated latencies come from
// the closed loop with one frame in flight instead.
func (s *session) cruise(dur time.Duration) (*phase, *churn, error) {
	p := &phase{}
	from := s.rec.count()
	start := time.Now()
	end := start.Add(dur)
	p.start, p.end = s.rec.at(start), s.rec.at(end)
	cycle := time.Duration(float64(len(s.in.Events)) / s.sp.CruiseRate * float64(time.Second))
	p.edges = cycleEdges(p.start, p.end, int64(cycle))

	ch := &churn{}
	var wg sync.WaitGroup
	var cpuErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.churnLoop(ch, start, end)
	}()
	go func() {
		defer wg.Done()
		p.cpuPerEvent, cpuErr = s.cpuLoop(from, p.edges)
	}()
	interval := time.Duration(float64(s.sp.Batch) / s.sp.CruiseRate * float64(time.Second))
	p.late = openLoop(start, interval, end, func(_ int, intended time.Time) {
		s.publish(p, s.rec.at(intended), nil)
	})
	wg.Wait()
	s.finish(p, from)
	return p, ch, cpuErr
}

// cpuLoop reads the daemons' CPU at every window edge of a phase and
// returns, per window, the CPU milliseconds spent per event published in
// it. from is the recorder's event count when the phase began.
func (s *session) cpuLoop(from int, edges []int64) ([]float64, error) {
	ticks, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	per := make([]float64, len(edges)-1)
	for w := range per {
		time.Sleep(time.Duration(edges[w+1] - s.rec.now()))
		t, err := s.cpuTicks()
		if err != nil {
			return nil, err
		}
		n := s.rec.count()
		if n > from {
			per[w] = float64(t-ticks) * msPerTick / float64(n-from)
		}
		ticks, from = t, n
	}
	return per, nil
}

// churnLoop registers and drops spare subscriptions under fresh IDs until
// end, one cycle every 1/ChurnPace seconds.
func (s *session) churnLoop(c *churn, start, end time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / s.sp.ChurnPace * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !time.Now().Before(end) {
			return
		}
		sub := *s.in.Spare[s.churnSeq%len(s.in.Spare)]
		sub.ID = "churn-" + strconv.Itoa(s.churnSeq)
		s.churnSeq++
		t0 := s.rec.now()
		root := s.tr.begin(0, "churn.cycle", "", t0)
		id, _, err := s.sub.Subscribe(&sub, false)
		t1 := s.rec.now()
		s.tr.add(root, "client.subscribe", "", t0, t1)
		c.calls++
		if err != nil {
			c.errs++
			s.tr.end(root, t1)
			continue
		}
		c.subscribes = append(c.subscribes, sample{at: t1, dur: t1 - t0})
		err = s.sub.Unsubscribe(id)
		t2 := s.rec.now()
		s.tr.add(root, "client.unsubscribe", "", t1, t2)
		s.tr.end(root, t2)
		c.calls++
		if err != nil {
			c.errs++
			continue
		}
		c.cycles = append(c.cycles, sample{at: t2, dur: t2 - t0})
	}
}
