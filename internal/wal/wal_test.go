package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
)

func testSub(id string) *event.Subscription {
	return &event.Subscription{
		ID:    id,
		Theme: []string{"transport", "traffic"},
		Predicates: []event.Predicate{
			{Attr: "road", Value: "closed", ApproxValue: true},
		},
	}
}

func testSpec(name string) *broker.QuerySpec {
	return &broker.QuerySpec{
		Name:         name,
		Kind:         "sequence",
		Subscription: testSub(""),
		Window:       5 * time.Second,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, State) {
	t.Helper()
	l, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st
}

// The fundamental contract: everything journaled before a crash is there
// after reopen, and unsubscribes erase their registrations.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{})
	if len(st.Subs) != 0 || len(st.Queries) != 0 {
		t.Fatalf("fresh log recovered state: %+v", st)
	}
	l.Subscribed("s1", testSub("s1"))
	l.Subscribed("s2", testSub("s2"))
	l.Unsubscribed("s1")
	l.QueryRegistered(testSpec("q1"))
	l.QueryRegistered(testSpec("q2"))
	l.QueryUnregistered("q2")
	l.Close()

	l2, st2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(st2.Subs) != 1 || st2.Subs["s2"] == nil {
		t.Fatalf("recovered subs %v, want exactly s2", st2.Subs)
	}
	if !reflect.DeepEqual(st2.Subs["s2"], testSub("s2")) {
		t.Fatalf("s2 did not roundtrip: %+v", st2.Subs["s2"])
	}
	if len(st2.Queries) != 1 || st2.Queries["q1"] == nil {
		t.Fatalf("recovered queries %v, want exactly q1", st2.Queries)
	}
	if got := l2.Stats().Replayed; got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
}

// A snapshot truncates the log and a reopen recovers purely from it; records
// appended after the snapshot replay over it.
func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		l.Subscribed(string(rune('a'+i)), testSub(string(rune('a'+i))))
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := l.Stats().LogBytes; got != int64(len(logMagic)) {
		t.Fatalf("post-snapshot log is %d bytes, want just the magic (%d)", got, len(logMagic))
	}
	l.Unsubscribed("a")
	l.Subscribed("z", testSub("z"))
	l.Close()

	l2, st := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(st.Subs) != 10 { // 10 - a + z
		t.Fatalf("recovered %d subs, want 10", len(st.Subs))
	}
	if st.Subs["a"] != nil || st.Subs["z"] == nil {
		t.Fatalf("log-over-snapshot replay wrong: a=%v z=%v", st.Subs["a"], st.Subs["z"])
	}
	if got := l2.Stats().Replayed; got != 2 {
		t.Fatalf("replayed %d log records, want only the 2 post-snapshot ones", got)
	}
}

// SnapshotEvery triggers automatic compaction.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SnapshotEvery: 5})
	defer l.Close()
	for i := 0; i < 12; i++ {
		l.Subscribed(string(rune('a'+i)), testSub(string(rune('a'+i))))
	}
	st := l.Stats()
	if st.Snapshots != 2 {
		t.Fatalf("12 appends at SnapshotEvery=5 took %d snapshots, want 2", st.Snapshots)
	}
	if st.LiveSubs != 12 {
		t.Fatalf("live subs %d, want 12", st.LiveSubs)
	}
}

// Seal freezes the durable state: the teardown unsubscribe storm of a
// graceful shutdown must not erase registrations a restart should recover.
func TestSealDropsAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Subscribed("keep", testSub("keep"))
	l.Seal()
	l.Unsubscribed("keep")
	l.QueryRegistered(testSpec("late"))
	l.Close()

	l2, st := mustOpen(t, dir, Options{})
	defer l2.Close()
	if st.Subs["keep"] == nil {
		t.Fatal("post-seal unsubscribe erased a registration that must survive restart")
	}
	if len(st.Queries) != 0 {
		t.Fatal("post-seal append leaked into the log")
	}
}

// A corrupt snapshot must fail Open loudly — silently starting empty would
// orphan every durable registration.
func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Subscribed("s1", testSub("s1"))
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.Close()

	snap := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // break the checksum
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// The restart the one-record snapshot could not make: 20,000 registrations
// are several MiB of snapshot, far past what one record may hold.
func TestSnapshotRestart20kRegistrations(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncPolicy{Never: true}, SnapshotEvery: -1})
	want := newState()
	for i := 0; i < 19_900; i++ {
		id := fmt.Sprintf("sub-%05d", i)
		want.Subs[id] = testSub(id)
		l.Subscribed(id, want.Subs[id])
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("query-%03d", i)
		want.Queries[name] = testSpec(name)
		l.QueryRegistered(want.Queries[name])
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.Close()
	if fi, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil || fi.Size() <= maxRecord {
		t.Fatalf("snapshot stat = %v, %v; want a file larger than one record (%d bytes)", fi, err, maxRecord)
	}

	l2, got := mustOpen(t, dir, Options{})
	defer l2.Close()
	if n := l2.Stats().Replayed; n != 0 {
		t.Errorf("replayed %d log records, want 0: the snapshot owns everything", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d subs and %d queries, want the %d and %d journaled, field for field",
			len(got.Subs), len(got.Queries), len(want.Subs), len(want.Queries))
	}
}

// A snapshot whose records all check out but whose trailer disagrees with
// them — or that was written in the retired one-record format — is refused
// by name, never loaded as whatever happens to decode.
func TestSnapshotTrailerAndFormatChecked(t *testing.T) {
	encode := func(recs ...record) []byte {
		buf := bytes.NewBuffer(append([]byte(nil), snapMagic...))
		for _, r := range recs {
			if err := encodeRecord(buf, r); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	subA := record{Type: recSubscribe, ID: "a", Sub: testSub("a")}
	subB := record{Type: recSubscribe, ID: "b", Sub: testSub("b")}
	for name, tc := range map[string]struct {
		file []byte
		says string
	}{
		"count too high":   {encode(subA, record{Type: recTrailer, Subs: 2}), "trailer says 2"},
		"count too low":    {encode(subA, subB, record{Type: recTrailer, Subs: 1}), "trailer says 1"},
		"repeated key":     {encode(subA, subA, record{Type: recTrailer, Subs: 2}), "holding 1 subscriptions"},
		"removal in body":  {encode(subA, subB, record{Type: recUnsubscribe, ID: "b"}, record{Type: recTrailer, Subs: 1}), "3 records"},
		"trailer mid-file": {encode(subA, record{Type: recTrailer, Subs: 1}, subB), "no trailer"},
		"old format":       {[]byte("TEPSNP1\n\x02{}\x00\x00\x00\x00"), `format "TEPSNP1\n"`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, st, err := Open(dir, Options{})
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: Open = %d subs, %v; want ErrBadSnapshot mentioning %q", name, len(st.Subs), err, tc.says)
		}
	}
	// The control: the same records under a truthful trailer load.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), encode(subA, subB, record{Type: recTrailer, Subs: 2}), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st := mustOpen(t, dir, Options{})
	defer l.Close()
	if len(st.Subs) != 2 {
		t.Errorf("truthful snapshot recovered %d subs, want 2", len(st.Subs))
	}
}

// Fsync policies: "always" fsyncs per append, "never" not at all, an
// interval policy flushes in the background.
func TestFsyncPolicies(t *testing.T) {
	always, _ := mustOpen(t, t.TempDir(), Options{})
	always.Subscribed("a", testSub("a"))
	always.Subscribed("b", testSub("b"))
	if got := always.Stats().Fsyncs; got != 2 {
		t.Fatalf("always policy issued %d fsyncs for 2 appends, want 2", got)
	}
	always.Close()

	never, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncPolicy{Never: true}})
	never.Subscribed("a", testSub("a"))
	if got := never.Stats().Fsyncs; got != 0 {
		t.Fatalf("never policy issued %d fsyncs, want 0", got)
	}
	never.Close()

	interval, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncPolicy{Interval: time.Millisecond}})
	interval.Subscribed("a", testSub("a"))
	deadline := time.Now().Add(2 * time.Second)
	for interval.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	interval.Close()
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		err  bool
	}{
		{"always", FsyncPolicy{}, false},
		{"", FsyncPolicy{}, false},
		{"NEVER", FsyncPolicy{Never: true}, false},
		{"100ms", FsyncPolicy{Interval: 100 * time.Millisecond}, false},
		{"-5s", FsyncPolicy{}, true},
		{"often", FsyncPolicy{}, true},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseFsyncPolicy(%q) err=%v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
