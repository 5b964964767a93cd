// Package wal is the broker's durability layer: a per-broker write-ahead
// log plus snapshot for subscription and continuous-query registrations.
// A crashed broker replays the snapshot and log on start (thematicd
// -data-dir) and re-registers everything it hosted before accepting
// traffic, so clients that survived the crash keep their registrations
// without re-subscribing.
//
// The log is a stream of length-prefixed, checksummed records in the
// uvarint idiom of internal/index/persist.go:
//
//	magic "TEPWAL1\n" | per record: len uvarint, payload, crc32(payload) LE
//	payload: type byte | JSON body
//
// Replay trusts exactly the prefix that checks out: a torn or corrupt
// record (a crash mid-append, a bad disk) ends the log at the last valid
// boundary — the damaged suffix is reported, counted, and truncated away,
// never loaded. The snapshot is the same record stream under its own magic
// ("TEPSNP2\n"): one subscribe or query record per live registration, then
// a trailer record carrying the counts. It is written to a temp file and
// atomically renamed, so a crash mid-snapshot leaves the previous snapshot
// intact; a snapshot that does not end in a trailer matching what precedes
// it is damage, not a crash, and fails Open.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

var (
	logMagic  = []byte("TEPWAL1\n")
	snapMagic = []byte("TEPSNP2\n")
)

// ErrBadSnapshot reports a corrupt snapshot file: unlike a torn log tail
// (expected after a crash, recovered silently), a snapshot that fails its
// checksum means real damage and the broker must not guess — Open fails
// loudly and the operator decides.
var ErrBadSnapshot = errors.New("wal: bad snapshot file")

// maxRecord bounds one record's payload, protecting replay from corrupt
// length prefixes (mirrors broker.MaxFrameSize).
const maxRecord = 1 << 20

// Record types.
const (
	recSubscribe byte = iota + 1
	recUnsubscribe
	recQuery
	recUnquery
	recTrailer // last record of a snapshot; a no-op in a log
)

// State is the materialized registration state: everything a recovering
// broker must re-register before accepting traffic.
type State struct {
	Subs    map[string]*event.Subscription
	Queries map[string]*broker.QuerySpec
}

func newState() State {
	return State{
		Subs:    make(map[string]*event.Subscription),
		Queries: make(map[string]*broker.QuerySpec),
	}
}

// clone deep-copies the map shells (the pointed-to specs are treated as
// immutable once journaled).
func (s State) clone() State {
	out := newState()
	for id, sub := range s.Subs {
		out.Subs[id] = sub
	}
	for name, q := range s.Queries {
		out.Queries[name] = q
	}
	return out
}

// record is one decoded log entry.
type record struct {
	Type byte
	ID   string              // subscribe/unsubscribe
	Sub  *event.Subscription `json:",omitempty"`
	Name string              // query/unquery
	Spec *broker.QuerySpec   `json:",omitempty"`
	// Trailer: how many registrations of each kind the snapshot holds.
	Subs    int `json:",omitempty"`
	Queries int `json:",omitempty"`
}

// apply folds the record into the state. Records are last-writer-wins per
// key, so replaying a log over any snapshot it post-dates converges.
func (s *State) apply(r record) {
	switch r.Type {
	case recSubscribe:
		if r.ID != "" && r.Sub != nil {
			s.Subs[r.ID] = r.Sub
		}
	case recUnsubscribe:
		delete(s.Subs, r.ID)
	case recQuery:
		if r.Spec != nil && r.Spec.Name != "" {
			s.Queries[r.Spec.Name] = r.Spec
		}
	case recUnquery:
		delete(s.Queries, r.Name)
	}
}

// FsyncPolicy controls when appends reach stable storage.
type FsyncPolicy struct {
	// Never disables fsync entirely (the OS decides); otherwise appends
	// fsync synchronously when Interval is zero, or a background flusher
	// fsyncs dirty state every Interval.
	Never    bool
	Interval time.Duration
}

// ParseFsyncPolicy parses the -fsync flag: "always", "never", or a flush
// interval such as "100ms".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return FsyncPolicy{}, nil
	case "never":
		return FsyncPolicy{Never: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return FsyncPolicy{}, fmt.Errorf("wal: fsync policy %q: want always, never, or a positive duration", s)
	}
	return FsyncPolicy{Interval: d}, nil
}

// Options tune one log.
type Options struct {
	Fsync FsyncPolicy
	// SnapshotEvery snapshots and truncates the log after this many
	// appended records (default 4096; negative disables auto-snapshot).
	SnapshotEvery int
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	Appends     uint64 // records appended this process
	Snapshots   uint64 // snapshots written this process
	Fsyncs      uint64 // fsync calls issued
	Replayed    int    // records recovered from the log at Open
	Truncated   int64  // bytes of torn/corrupt tail discarded at Open
	LogBytes    int64  // current log file size
	LiveSubs    int    // subscriptions in the materialized state
	LiveQueries int    // queries in the materialized state
}

// Log is an open write-ahead log. It implements broker.Journal and
// query.Journal, so wiring durability is WithJournal(log) on both.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           *os.File
	state       State
	sealed      bool
	closed      bool
	dirty       bool // appended since last fsync
	sinceSnap   int  // records since last snapshot
	logBytes    int64
	appends     uint64
	snapshots   uint64
	fsyncs      uint64
	replayed    int
	truncated   int64
	flusherDone chan struct{}
}

func (l *Log) logPath() string  { return filepath.Join(l.dir, "wal.log") }
func (l *Log) snapPath() string { return filepath.Join(l.dir, "snapshot") }

// Open loads (or creates) the durable state under dir: snapshot first,
// then the log replayed over it, with any torn tail truncated to the last
// valid record boundary. It returns the recovered state for the caller to
// re-register; subsequent appends continue the same log.
func Open(dir string, opts Options) (*Log, State, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, State{}, err
	}
	l := &Log{dir: dir, opts: opts, state: newState()}

	if err := l.loadSnapshot(); err != nil {
		return nil, State{}, err
	}
	if err := l.replayLog(); err != nil {
		return nil, State{}, err
	}

	f, err := os.OpenFile(l.logPath(), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, State{}, err
	}
	if l.logBytes == 0 {
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, State{}, err
		}
		l.logBytes = int64(len(logMagic))
	}
	if _, err := f.Seek(l.logBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, State{}, err
	}
	l.f = f

	if !opts.Fsync.Never && opts.Fsync.Interval > 0 {
		l.flusherDone = make(chan struct{})
		go l.flusher()
	}
	return l, l.state.clone(), nil
}

func (l *Log) loadSnapshot() error {
	data, err := os.ReadFile(l.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, snapMagic) {
		return fmt.Errorf("%w: format %q, want %q", ErrBadSnapshot, data[:min(len(data), len(snapMagic))], snapMagic)
	}
	recs, valid := scanRecords(data, snapMagic)
	if valid < int64(len(data)) {
		return fmt.Errorf("%w: damaged record at offset %d", ErrBadSnapshot, valid)
	}
	if len(recs) == 0 || recs[len(recs)-1].Type != recTrailer {
		return fmt.Errorf("%w: no trailer after %d records", ErrBadSnapshot, len(recs))
	}
	trailer := recs[len(recs)-1]
	st := newState()
	for _, r := range recs[:len(recs)-1] {
		st.apply(r)
	}
	// Counting the applied state, not the records, also refuses a snapshot
	// whose body holds anything but distinct registrations.
	if len(recs)-1 != trailer.Subs+trailer.Queries || len(st.Subs) != trailer.Subs || len(st.Queries) != trailer.Queries {
		return fmt.Errorf("%w: %d records holding %d subscriptions and %d queries, trailer says %d and %d",
			ErrBadSnapshot, len(recs)-1, len(st.Subs), len(st.Queries), trailer.Subs, trailer.Queries)
	}
	l.state = st
	return nil
}

// replayLog applies every valid record to the state and truncates any torn
// or corrupt tail so appends resume at a clean boundary.
func (l *Log) replayLog() error {
	data, err := os.ReadFile(l.logPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	recs, valid := scanRecords(data, logMagic)
	for _, r := range recs {
		l.state.apply(r)
	}
	l.replayed = len(recs)
	l.logBytes = valid
	if valid < int64(len(data)) {
		l.truncated = int64(len(data)) - valid
		if err := os.Truncate(l.logPath(), valid); err != nil {
			return err
		}
	}
	return nil
}

// scanRecords decodes the longest valid prefix of an encoded record stream
// (the log or a snapshot, told apart by magic), returning the records and
// the byte offset where the valid prefix ends. A missing or damaged magic
// yields no records and offset zero (a log is then rewritten whole).
// Anything after the first torn/corrupt record — including a record that
// decodes to an unknown type or invalid JSON — is untrusted.
func scanRecords(data, magic []byte) ([]record, int64) {
	if !bytes.HasPrefix(data, magic) {
		return nil, 0
	}
	r := bytes.NewReader(data[len(magic):])
	offset := int64(len(magic))
	var out []record
	for {
		payload, n, err := readRecord(r)
		if err != nil {
			return out, offset
		}
		var rec record
		if len(payload) == 0 || json.Unmarshal(payload[1:], &rec) != nil {
			return out, offset
		}
		rec.Type = payload[0]
		if rec.Type < recSubscribe || rec.Type > recTrailer {
			return out, offset
		}
		out = append(out, rec)
		offset += n
	}
}

// readRecord reads one length-prefixed checksummed record, returning the
// payload and the total encoded size.
func readRecord(r *bytes.Reader) (payload []byte, size int64, err error) {
	before := r.Len()
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 || n > maxRecord {
		return nil, 0, fmt.Errorf("wal: implausible record length %d", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	return payload, int64(before - r.Len()), nil
}

// encodeRecord appends rec's encoding to buf.
func encodeRecord(buf *bytes.Buffer, rec record) error {
	js, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	payload := append([]byte{rec.Type}, js...)
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))])
	buf.Write(payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	buf.Write(crcBuf[:])
	return nil
}

// append writes one record, applies it to the materialized state, fsyncs
// per policy, and auto-snapshots past the threshold. Appends on a sealed
// or closed log are dropped: sealing freezes the durable state at the
// moment shutdown began, so teardown-driven unsubscribes cannot erase
// registrations that must survive the restart.
func (l *Log) append(rec record) {
	var enc bytes.Buffer
	if encodeRecord(&enc, rec) != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed || l.closed {
		return
	}
	if _, err := l.f.Write(enc.Bytes()); err != nil {
		return
	}
	l.logBytes += int64(enc.Len())
	l.appends++
	l.state.apply(rec)
	if !l.opts.Fsync.Never {
		if l.opts.Fsync.Interval > 0 {
			l.dirty = true
		} else if l.f.Sync() == nil {
			l.fsyncs++
		}
	}
	l.sinceSnap++
	if l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery {
		l.snapshotLocked()
	}
}

// Subscribed implements broker.Journal.
func (l *Log) Subscribed(id string, sub *event.Subscription) {
	l.append(record{Type: recSubscribe, ID: id, Sub: sub})
}

// Unsubscribed implements broker.Journal.
func (l *Log) Unsubscribed(id string) {
	l.append(record{Type: recUnsubscribe, ID: id})
}

// QueryRegistered implements query.Journal.
func (l *Log) QueryRegistered(spec *broker.QuerySpec) {
	l.append(record{Type: recQuery, Spec: spec})
}

// QueryUnregistered implements query.Journal.
func (l *Log) QueryUnregistered(name string) {
	l.append(record{Type: recUnquery, Name: name})
}

// Snapshot persists the materialized state and truncates the log. Called
// by the daemon after recovery (collapsing the re-registration appends)
// and automatically every SnapshotEvery records.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	return l.snapshotLocked()
}

func (l *Log) snapshotLocked() error {
	// The log's own records, in key order so equal states are equal files.
	var buf bytes.Buffer
	buf.Write(snapMagic)
	recs := make([]record, 0, len(l.state.Subs)+len(l.state.Queries)+1)
	for _, id := range slices.Sorted(maps.Keys(l.state.Subs)) {
		recs = append(recs, record{Type: recSubscribe, ID: id, Sub: l.state.Subs[id]})
	}
	for _, name := range slices.Sorted(maps.Keys(l.state.Queries)) {
		recs = append(recs, record{Type: recQuery, Spec: l.state.Queries[name]})
	}
	recs = append(recs, record{Type: recTrailer, Subs: len(l.state.Subs), Queries: len(l.state.Queries)})
	for _, r := range recs {
		if err := encodeRecord(&buf, r); err != nil {
			return err
		}
	}

	tmp := l.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.snapPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	l.fsyncs++
	l.snapshots++

	// The snapshot owns everything the log said: restart the log. A crash
	// between rename and truncate is safe — replaying the old log over the
	// new snapshot converges (records are last-writer-wins per key).
	if err := l.f.Truncate(int64(len(logMagic))); err != nil {
		return err
	}
	if _, err := l.f.Seek(int64(len(logMagic)), io.SeekStart); err != nil {
		return err
	}
	l.logBytes = int64(len(logMagic))
	l.sinceSnap = 0
	l.dirty = false
	return nil
}

// Seal freezes the log: every subsequent append is dropped. The daemon
// seals on graceful shutdown before tearing down connections, so the
// unsubscribe storm of closing clients cannot erase registrations that a
// restart must recover. A clean client unsubscribe before the seal is
// journaled normally and will not be recovered.
func (l *Log) Seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed = true
}

// Close seals, flushes, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.sealed, l.closed = true, true
	flusher := l.flusherDone
	var err error
	if l.f != nil {
		if !l.opts.Fsync.Never {
			l.f.Sync()
		}
		err = l.f.Close()
	}
	l.mu.Unlock()
	if flusher != nil {
		close(flusher)
	}
	return err
}

// flusher fsyncs dirty state every Fsync.Interval.
func (l *Log) flusher() {
	t := time.NewTicker(l.opts.Fsync.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.flusherDone:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				if l.f.Sync() == nil {
					l.fsyncs++
				}
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:     l.appends,
		Snapshots:   l.snapshots,
		Fsyncs:      l.fsyncs,
		Replayed:    l.replayed,
		Truncated:   l.truncated,
		LogBytes:    l.logBytes,
		LiveSubs:    len(l.state.Subs),
		LiveQueries: len(l.state.Queries),
	}
}

// WriteMetrics implements broker.Collector, exporting the WAL counters on
// the daemon's Prometheus endpoint.
func (l *Log) WriteMetrics(w io.Writer) {
	st := l.Stats()
	telemetry.WriteCounter(w, "thematicep_wal_appends_total", "Registration records appended to the WAL.", st.Appends)
	telemetry.WriteCounter(w, "thematicep_wal_snapshots_total", "WAL snapshots written.", st.Snapshots)
	telemetry.WriteCounter(w, "thematicep_wal_fsyncs_total", "WAL fsync calls issued.", st.Fsyncs)
	telemetry.WriteGauge(w, "thematicep_wal_replayed_records", "Records recovered from the log at startup.", st.Replayed)
	telemetry.WriteGauge(w, "thematicep_wal_truncated_bytes", "Bytes of torn or corrupt log tail discarded at startup.", int(st.Truncated))
	telemetry.WriteGauge(w, "thematicep_wal_log_bytes", "Current WAL file size.", int(st.LogBytes))
	telemetry.WriteGauge(w, "thematicep_wal_live_subscriptions", "Durable subscription registrations in the materialized state.", st.LiveSubs)
	telemetry.WriteGauge(w, "thematicep_wal_live_queries", "Durable continuous-query registrations in the materialized state.", st.LiveQueries)
}
