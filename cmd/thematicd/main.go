// Command thematicd is the thematic event broker daemon: it builds the
// distributional space, wires the thematic approximate matcher into a
// publish/subscribe broker, and serves the wire protocol over TCP.
//
// Usage:
//
//	thematicd -addr 127.0.0.1:7070 -threshold 0.2
//
// Clients (for example cmd/themctl) publish events and register thematic
// subscriptions; the daemon delivers matching events asynchronously.
//
// With -seeds, the daemon joins a theme-sharded federation: each broker
// owns a consistent-hash shard of the theme space, and events are
// forwarded only to the peers whose shard overlaps their theme tags. One
// reachable seed is enough; the rest of the members are found by gossip:
//
//	thematicd -addr :7070 -advertise host1:7070 -seeds host2:7070,host3:7070
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/cluster"
	"thematicep/internal/corpus"
	"thematicep/internal/faultinject"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/query"
	"thematicep/internal/semantics"
	"thematicep/internal/telemetry"
	"thematicep/internal/vocab"
	"thematicep/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "thematicd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("thematicd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "listen address")
		threshold = fs.Float64("threshold", 0.2, "minimum match score for delivery")
		thematic  = fs.Bool("thematic", true, "use theme tags (false = non-thematic baseline)")
		replay    = fs.Int("replay", 256, "replay buffer size (0 disables)")
		queue     = fs.Int("queue", 64, "per-subscriber queue size")
		seed      = fs.Int64("seed", 42, "corpus generation seed")
		indexPath = fs.String("index", "", "index cache file: loaded when present, written after indexing")
		metrics   = fs.String("metrics", "", "optional HTTP address serving /metrics (Prometheus text format)")
		seeds     = fs.String("seeds", "", "comma-separated seed broker addresses, kept as static links, to join a theme-sharded federation through gossip (enables federation; the rest of the membership is discovered)")
		suspectT  = fs.Duration("suspect-timeout", 10*time.Second, "membership: how long an unreachable member stays suspect before it is declared dead and its shards rebalance")
		dataDir   = fs.String("data-dir", "", "durable state directory: subscription/query registrations are journaled (WAL + snapshot) and replayed on restart (empty disables durability)")
		fsyncPol  = fs.String("fsync", "always", "with -data-dir: WAL fsync policy — always, never, or a flush interval like 100ms")
		walSnap   = fs.Int("wal-snapshot", 4096, "with -data-dir: snapshot and truncate the WAL after this many appended records")
		advertise = fs.String("advertise", "", "address peers dial for this broker (shard identity; defaults to -addr)")
		parallel  = fs.Int("match-parallelism", 0, "matching worker pool size, shared by concurrent publishes; one worker enumerates and scores each event, so a single-event publish runs serially (0 = GOMAXPROCS, 1 = serial)")
		pruning   = fs.Bool("pruning", true, "prune per-publish candidates via the subscription index (recall-preserving)")
		traceN    = fs.Int("trace-sample", 0, "record a pipeline trace for 1 in N published events (0 disables; see /debug/traces)")
		drainT    = fs.Duration("drain-timeout", 5*time.Second, "max time to flush subscriber queues on SIGTERM before closing anyway")
		shedMark  = fs.Int("shed-watermark", 0, "shed publishes with an overload error when more than this many are in flight and they and their helper workers fill -match-parallelism (0 disables)")
		maxBatch  = fs.Int("max-batch", broker.DefaultMaxBatch, "largest event batch accepted per publishb frame; oversized batches are rejected whole (<=0 disables the cap)")
		chaos     = fs.String("chaos", "", "fault injection on peer links, e.g. seed=42,latency=2ms,stall=0.01,stallfor=250ms,reset=0.005,corrupt=0.01 (testing only)")
		queryTick = fs.Duration("query-tick", time.Second, "continuous-query flush interval: quiet streams fire pending negation/aggregate windows this often (<=0 disables)")
		sloT      = fs.Duration("slo", 0, "latency SLO threshold: publishes (and CEP detections) slower than this burn error budget, exposed as thematicep_slo_* (0 disables)")
		sloObj    = fs.Float64("slo-objective", 0.99, "with -slo: fraction of observations that must meet the threshold")
		profDir   = fs.String("prof-dir", "", "continuous profiling: directory for the bounded ring of CPU/heap pprof captures, served at /debug/prof/ring (empty disables)")
		profEvery = fs.Duration("prof-interval", 0, "with -prof-dir: capture cadence (0 = only on SLO burn or manual trigger)")
		profKeep  = fs.Int("prof-keep", 16, "with -prof-dir: max profile files kept on disk")
		profCPU   = fs.Duration("prof-cpu", 2*time.Second, "with -prof-dir: CPU sampling duration per capture")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The shard identity doubles as the tracer's node label, so trace
	// fragments merged across the federation stay attributable.
	self := *advertise
	if self == "" {
		self = *addr
	}

	// Open the durability layer first: the WAL replays under the previous
	// run's registrations so they can be re-registered before the listener
	// accepts traffic, and the broker journals through it from its first
	// subscribe.
	var wlog *wal.Log
	var recovered wal.State
	if *dataDir != "" {
		pol, err := wal.ParseFsyncPolicy(*fsyncPol)
		if err != nil {
			return err
		}
		wlog, recovered, err = wal.Open(*dataDir, wal.Options{Fsync: pol, SnapshotEvery: *walSnap})
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		defer wlog.Close()
		ws := wlog.Stats()
		fmt.Fprintf(os.Stderr, "wal: %s replayed %d record(s) (%d subscription(s), %d query(ies))",
			*dataDir, ws.Replayed, len(recovered.Subs), len(recovered.Queries))
		if ws.Truncated > 0 {
			fmt.Fprintf(os.Stderr, "; truncated %d byte(s) of torn tail", ws.Truncated)
		}
		fmt.Fprintln(os.Stderr)
	}

	ix, err := loadOrBuildIndex(*indexPath, *seed)
	if err != nil {
		return err
	}
	space := semantics.NewSpace(ix)
	m := matcher.New(space, matcher.WithThematic(*thematic))

	opts := []broker.Option{
		broker.WithThreshold(*threshold),
		broker.WithReplayBuffer(*replay),
		broker.WithQueueSize(*queue),
		broker.WithPruning(*pruning),
	}
	if *parallel > 0 {
		opts = append(opts, broker.WithMatchParallelism(*parallel))
	}
	if *traceN > 0 {
		opts = append(opts, broker.WithTraceSampling(*traceN, telemetry.WithNode(self)))
	}
	if *shedMark > 0 {
		opts = append(opts, broker.WithShedWatermark(*shedMark))
	}
	if wlog != nil {
		opts = append(opts, broker.WithJournal(wlog))
	}
	var deliverySLO, detectionSLO *telemetry.SLO
	if *sloT > 0 {
		deliverySLO = telemetry.NewSLO("delivery", *sloObj, *sloT)
		detectionSLO = telemetry.NewSLO("detection", *sloObj, *sloT)
		opts = append(opts, broker.WithDeliverySLO(deliverySLO))
	}
	// *matcher.Matcher is a broker.Engine, which turns on the prepare-once
	// fast path (subscriptions canonicalized and theme-compiled at
	// Subscribe time, events once per publish), the pruning index, and
	// arena scoring with term interning and row memos. A row memo lives for
	// one prepared event: the arena clears it whenever it moves to the next
	// event (matcher/publishbatch.go).
	b := broker.New(m, opts...)
	defer b.Close()

	srv := broker.NewServer(b)
	srv.SetMaxBatch(*maxBatch)

	splitAddrs := func(s string) []string {
		var out []string
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	var node *cluster.Node
	var collectors []broker.Collector
	if *seeds != "" {
		ccfg := cluster.Config{
			Self:           self,
			Seeds:          splitAddrs(*seeds),
			SuspectTimeout: *suspectT,
			MetricsAddr:    *metrics,
		}
		if *chaos != "" {
			fcfg, err := faultinject.ParseSpec(*chaos)
			if err != nil {
				return fmt.Errorf("-chaos: %w", err)
			}
			inj := faultinject.New(fcfg)
			ccfg.Dial = inj.Dialer(func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 2*time.Second)
			})
			fmt.Fprintf(os.Stderr, "CHAOS: peer links run through fault injection (%s)\n", *chaos)
		}
		node, err = cluster.New(b, ccfg)
		if err != nil {
			return err
		}
		srv.SetBackend(node)
		srv.SetPeerHandler(node)
		collectors = append(collectors, node)
	}

	// The continuous-query engine runs over the clustered backend when
	// federated (so a registered query sees the same deliveries a
	// subscriber would) and hooks the broker's drain so pending
	// negation/aggregate windows fire before shutdown.
	var backend broker.Backend = b
	if node != nil {
		backend = node
	}
	qopts := []query.Option{
		query.WithFlushInterval(*queryTick),
		query.WithDetectionSLO(detectionSLO),
	}
	if wlog != nil {
		qopts = append(qopts, query.WithJournal(wlog))
	}
	eng := query.New(backend, qopts...)
	defer eng.Close()
	srv.SetQueryRegistrar(eng)
	b.OnDrain(eng.Drain)
	collectors = append(collectors, eng)

	// Recovery: re-register everything the WAL says we hosted, parked for
	// adoption by reconnecting clients, before the listener accepts traffic
	// — a crashed broker serves its pre-crash registrations (matching,
	// federation handoff, CEP windows) without anyone re-subscribing.
	if wlog != nil {
		rec := broker.NewRecovered()
		for id, sub := range recovered.Subs {
			h, err := backend.SubscribeHandle(sub)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wal: re-register subscription %s: %v\n", id, err)
				continue
			}
			rec.ParkSub(h)
		}
		for name, spec := range recovered.Queries {
			q, err := eng.Register(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wal: re-register query %s: %v\n", name, err)
				continue
			}
			rec.ParkQuery(q)
		}
		srv.SetRecovered(rec)
		// Collapse the re-registration appends back into one snapshot.
		if err := wlog.Snapshot(); err != nil {
			return fmt.Errorf("wal: snapshot after recovery: %w", err)
		}
		collectors = append(collectors, wlog)
		if subs, queries := rec.Counts(); subs+queries > 0 {
			fmt.Fprintf(os.Stderr, "wal: serving %d recovered subscription(s) and %d query(ies), awaiting client re-attach\n", subs, queries)
		}
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "thematicd listening on %s (thematic=%v threshold=%.2f)\n",
		bound, *thematic, *threshold)
	if node != nil {
		node.Start()
		defer node.Close()
		fmt.Fprintf(os.Stderr, "federation: shard %s (seeds=%s suspect-timeout=%s)\n",
			node.ID(), *seeds, *suspectT)
	}

	// Continuous profiling: a bounded on-disk ring of CPU/heap captures,
	// filled on cadence and whenever an SLO pages (red status), so the
	// profile of an incident is on disk before anyone starts debugging it.
	var prof *telemetry.Profiler
	if *profDir != "" {
		prof, err = telemetry.NewProfiler(*profDir, *profKeep, *profCPU)
		if err != nil {
			return err
		}
		profCtx, profCancel := context.WithCancel(context.Background())
		defer profCancel()
		go prof.Run(profCtx, *profEvery)
		if deliverySLO != nil {
			go func() {
				t := time.NewTicker(15 * time.Second)
				defer t.Stop()
				for {
					select {
					case <-profCtx.Done():
						return
					case <-t.C:
						if deliverySLO.Status() == telemetry.SLORed {
							prof.Trigger("slo-burn:delivery")
						} else if detectionSLO.Status() == telemetry.SLORed {
							prof.Trigger("slo-burn:detection")
						}
					}
				}
			}()
		}
		fmt.Fprintf(os.Stderr, "profiling into %s (keep %d, cadence %s)\n", *profDir, *profKeep, *profEvery)
	}

	if *metrics != "" {
		// Process runtime health and the SLO burn state ride the same scrape
		// as the pipeline families.
		collectors = append(collectors, telemetry.NewRuntimeCollector(""))
		if deliverySLO != nil {
			collectors = append(collectors, deliverySLO, detectionSLO)
		}
		mux := http.NewServeMux()
		// The space is a collector too: cache hit/miss/occupancy and
		// single-flight coalescing land on the same scrape.
		mux.Handle("/metrics", broker.MetricsHandler(b, append(collectors, space)...))
		mux.Handle("/debug/traces", b.TracesHandler())
		// /debug/peers is the cluster scrape directory themctl's -cluster
		// and trace modes discover the federation from; a single node serves
		// a one-row directory so the same tooling works unclustered.
		if node != nil {
			mux.Handle("/debug/peers", node.PeersHandler())
		} else {
			mux.HandleFunc("/debug/peers", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode([]cluster.PeerInfo{{Node: self, Metrics: *metrics, Self: true}})
			})
		}
		if prof != nil {
			mux.Handle("/debug/prof/ring", prof.Handler())
		}
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "thematicd: metrics:", err)
			}
		}()
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (traces: /debug/traces, peers: /debug/peers, pprof: /debug/pprof/, expvar: /debug/vars)\n", *metrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Freeze the durable state at the moment shutdown begins: snapshot the
	// live registrations, then seal the log so the teardown's unsubscribe
	// storm (every connection closing) cannot erase registrations a restart
	// must recover. Clients connected right now expect to find their
	// subscriptions after a rolling restart.
	if wlog != nil {
		if err := wlog.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "wal: shutdown snapshot: %v\n", err)
		}
		wlog.Seal()
	}

	// Graceful drain: refuse new publishes, flush what subscribers already
	// have queued, then close — bounded by -drain-timeout so a stuck
	// consumer cannot hold shutdown hostage. The deferred server/node
	// closes run after the broker has stopped admitting work.
	fmt.Fprintf(os.Stderr, "draining (timeout %s)...\n", *drainT)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	if err := b.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: gave up after %s: %v\n", *drainT, err)
	} else {
		fmt.Fprintln(os.Stderr, "drain: subscriber queues flushed")
	}
	cancel()

	st := b.Stats()
	fmt.Fprintf(os.Stderr, "shutting down: published=%d scanned=%d pruned=%d matched=%d delivered=%d dropped=%d shed=%d\n",
		st.Published, st.Scanned, st.Pruned, st.Matched, st.Delivered, st.Dropped, st.Shed)
	if node != nil {
		cs := node.Stats()
		fmt.Fprintf(os.Stderr, "federation: forwarded=%d shed=%d received=%d deduped=%d reconnects=%d queueDrops=%d breakerTrips=%d\n",
			cs.Forwarded, cs.ForwardsShed, cs.Received, cs.Deduped, cs.PeerReconnects, cs.QueueDrops, cs.BreakerTrips)
	}
	for _, qs := range eng.Stats() {
		fmt.Fprintf(os.Stderr, "query %s (%s): fed=%d deduped=%d detections=%d dropped=%d window=%d\n",
			qs.Name, qs.Kind, qs.Fed, qs.Deduped, qs.Detections, qs.Dropped, qs.Occupancy)
	}
	return nil
}

// loadOrBuildIndex loads a cached index when path exists, otherwise builds
// one from the corpus (and caches it when a path was given). Caching
// addresses the cold-start cost of indexing (§7 future work).
func loadOrBuildIndex(path string, seed int64) (*index.Index, error) {
	if path != "" {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			fmt.Fprintf(os.Stderr, "loading index from %s...\n", path)
			ix, err := index.ReadFrom(f)
			if err != nil {
				return nil, fmt.Errorf("load index: %w", err)
			}
			return ix, nil
		}
	}
	fmt.Fprintln(os.Stderr, "building distributional space...")
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ix := index.Build(corpus.Generate(vocab.AllDomains(), ccfg))
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("cache index: %w", err)
		}
		defer f.Close()
		if _, err := ix.WriteTo(f); err != nil {
			return nil, fmt.Errorf("cache index: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cached index to %s\n", path)
	}
	return ix, nil
}
