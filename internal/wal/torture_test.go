package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// op is one journaled operation in the torture sequence.
type op struct {
	kind byte
	key  string
}

var tortureOps = []op{
	{recSubscribe, "a"},
	{recSubscribe, "b"},
	{recQuery, "q1"},
	{recUnsubscribe, "a"},
	{recSubscribe, "c"},
	{recUnquery, "q1"},
	{recQuery, "q2"},
	{recUnsubscribe, "b"},
}

// journal appends the op to l.
func (o op) journal(l *Log) {
	switch o.kind {
	case recSubscribe:
		l.Subscribed(o.key, testSub(o.key))
	case recUnsubscribe:
		l.Unsubscribed(o.key)
	case recQuery:
		l.QueryRegistered(testSpec(o.key))
	case recUnquery:
		l.QueryUnregistered(o.key)
	}
}

// simulate folds the first k torture ops into the expected key sets.
func simulate(k int) (subs, queries map[string]bool) {
	subs, queries = map[string]bool{}, map[string]bool{}
	for _, o := range tortureOps[:k] {
		switch o.kind {
		case recSubscribe:
			subs[o.key] = true
		case recUnsubscribe:
			delete(subs, o.key)
		case recQuery:
			queries[o.key] = true
		case recUnquery:
			delete(queries, o.key)
		}
	}
	return subs, queries
}

func keys(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func stateKeys(st State) (subs, queries map[string]bool) {
	subs, queries = map[string]bool{}, map[string]bool{}
	for id := range st.Subs {
		subs[id] = true
	}
	for name := range st.Queries {
		queries[name] = true
	}
	return subs, queries
}

// buildTortureLog writes the op sequence and returns the raw log bytes plus
// each record's end offset (boundaries[j] = offset just past record j),
// captured from the writer side so the reader is not its own oracle.
func buildTortureLog(t *testing.T) (data []byte, boundaries []int64) {
	t.Helper()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncPolicy{Never: true}})
	for _, o := range tortureOps {
		o.journal(l)
		boundaries = append(boundaries, l.Stats().LogBytes)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[len(boundaries)-1] {
		t.Fatalf("log is %d bytes but last boundary is %d", len(data), boundaries[len(boundaries)-1])
	}
	return data, boundaries
}

// intact counts the records whose bytes lie entirely before offset p.
func intact(boundaries []int64, p int64) int {
	n := 0
	for _, b := range boundaries {
		if b <= p {
			n++
		}
	}
	return n
}

// Truncating the log at EVERY byte boundary must recover exactly the records
// that fully fit — the longest valid prefix — and resume appends at a clean
// offset. This is the crash-mid-append contract.
func TestTortureTruncate(t *testing.T) {
	data, boundaries := buildTortureLog(t)
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
		if err != nil {
			t.Fatalf("cut=%d: Open failed on a torn log: %v", cut, err)
		}
		k := intact(boundaries, int64(cut))
		wantSubs, wantQueries := simulate(k)
		gotSubs, gotQueries := stateKeys(st)
		if keys(gotSubs) != keys(wantSubs) || keys(gotQueries) != keys(wantQueries) {
			t.Fatalf("cut=%d (%d intact records): recovered subs=%s queries=%s, want subs=%s queries=%s",
				cut, k, keys(gotSubs), keys(gotQueries), keys(wantSubs), keys(wantQueries))
		}
		if got := l.Stats().Replayed; got != k {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, got, k)
		}
		// The log must be writable after recovery: append, reopen, verify.
		l.Subscribed("post", testSub("post"))
		l.Close()
		l2, st2, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
		if err != nil {
			t.Fatalf("cut=%d: reopen after post-recovery append: %v", cut, err)
		}
		if st2.Subs["post"] == nil {
			t.Fatalf("cut=%d: append after recovery was lost", cut)
		}
		l2.Close()
	}
}

// Corrupting ONE byte at every position must never invent registrations:
// recovery yields some strict prefix of the original records — at least the
// records living entirely before the damage — or, for snapshot damage, a
// loud failure. Never a silent wrong answer.
func TestTortureBitFlip(t *testing.T) {
	data, boundaries := buildTortureLog(t)
	for pos := 0; pos < len(data); pos++ {
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= 0xFF
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
		if err != nil {
			t.Fatalf("pos=%d: Open failed on log corruption (must truncate, not error): %v", pos, err)
		}
		gotSubs, gotQueries := stateKeys(st)
		minK := intact(boundaries, int64(pos))
		matched := -1
		for k := minK; k <= len(tortureOps); k++ {
			wantSubs, wantQueries := simulate(k)
			if keys(gotSubs) == keys(wantSubs) && keys(gotQueries) == keys(wantQueries) {
				matched = k
				break
			}
		}
		if matched < 0 {
			t.Fatalf("pos=%d: recovered subs=%s queries=%s matches no prefix ≥ %d of the original sequence",
				pos, keys(gotSubs), keys(gotQueries), minK)
		}
		l.Close()
	}
}

// buildTortureSnapshot journals a multi-record state — the survivors of the
// torture ops plus a few more registrations of each kind — and returns the
// snapshot file's bytes with the state it holds.
func buildTortureSnapshot(t testing.TB) (snap []byte, subs, queries map[string]bool) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tortureOps {
		o.journal(l)
	}
	subs, queries = simulate(len(tortureOps))
	for _, k := range []string{"d", "e", "f"} {
		l.Subscribed(k, testSub(k))
		subs[k] = true
	}
	l.QueryRegistered(testSpec("q3"))
	queries["q3"] = true
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snap, err = os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	return snap, subs, queries
}

// Same discipline for the snapshot file, which is a stream of records like
// the log: damage at any byte of any record must surface as ErrBadSnapshot
// (or recover the identical state if the byte is redundant), never as a
// silently different registration set.
func TestTortureSnapshotBitFlip(t *testing.T) {
	snap, wantSubs, wantQueries := buildTortureSnapshot(t)
	if recs, _ := scanRecords(snap, snapMagic); len(recs) != len(wantSubs)+len(wantQueries)+1 || len(recs) < 4 {
		t.Fatalf("snapshot holds %d records for %d registrations: not the multi-record file this test is about",
			len(recs), len(wantSubs)+len(wantQueries))
	}

	for pos := 0; pos < len(snap); pos++ {
		corrupted := append([]byte(nil), snap...)
		corrupted[pos] ^= 0xFF
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "snapshot"), corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, st, err := Open(cdir, Options{Fsync: FsyncPolicy{Never: true}})
		if err != nil {
			continue // loud failure is the expected outcome
		}
		gotSubs, gotQueries := stateKeys(st)
		if keys(gotSubs) != keys(wantSubs) || keys(gotQueries) != keys(wantQueries) {
			t.Fatalf("pos=%d: corrupt snapshot opened with DIFFERENT state: subs=%s queries=%s",
				pos, keys(gotSubs), keys(gotQueries))
		}
		l2.Close()
	}
}

// A snapshot is whole or it is refused: unlike the log, whose torn tail is
// an expected crash artefact, a snapshot cut anywhere short of its trailer —
// record boundaries included, where every record present checks out — must
// fail Open rather than come back as a shorter registration set.
func TestTortureSnapshotTruncate(t *testing.T) {
	snap, _, _ := buildTortureSnapshot(t)
	boundary := map[int]bool{len(snapMagic): true}
	for off := len(snapMagic); off < len(snap); {
		_, n, err := readRecord(bytes.NewReader(snap[off:]))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		off += int(n)
		boundary[off] = true
	}
	for cut := 0; cut < len(snap); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), snap[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, st, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut=%d of %d (record boundary: %v): Open = %d subs, %v; want ErrBadSnapshot",
				cut, len(snap), boundary[cut], len(st.Subs), err)
		}
	}
}

// FuzzScanRecords asserts the prefix-scan invariants on arbitrary bytes: no
// panic, the valid offset never exceeds the input, and rescanning the valid
// prefix is a fixed point (same records, same offset).
func FuzzScanRecords(f *testing.F) {
	data, _ := buildTortureLogF(f)
	snap, _, _ := buildTortureSnapshot(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte("TEPWAL1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, magic := range [][]byte{logMagic, snapMagic} {
			recs, valid := scanRecords(in, magic)
			if valid < 0 || valid > int64(len(in)) {
				t.Fatalf("valid offset %d out of range [0,%d]", valid, len(in))
			}
			recs2, valid2 := scanRecords(in[:valid], magic)
			if valid2 != valid || len(recs2) != len(recs) {
				t.Fatalf("rescan of valid prefix not a fixed point: %d/%d records, %d/%d bytes",
					len(recs2), len(recs), valid2, valid)
			}
		}
	})
}

// buildTortureLogF is buildTortureLog for a fuzz seed corpus.
func buildTortureLogF(f *testing.F) ([]byte, []int64) {
	f.Helper()
	dir := f.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncPolicy{Never: true}})
	if err != nil {
		f.Fatal(err)
	}
	var boundaries []int64
	for i, o := range tortureOps {
		switch o.kind {
		case recSubscribe:
			l.Subscribed(o.key, testSub(fmt.Sprintf("fuzz-%d", i)))
		case recUnsubscribe:
			l.Unsubscribed(o.key)
		case recQuery:
			l.QueryRegistered(testSpec(o.key))
		case recUnquery:
			l.QueryUnregistered(o.key)
		}
		boundaries = append(boundaries, l.Stats().LogBytes)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.HasPrefix(data, logMagic) {
		f.Fatal("torture log missing magic")
	}
	return data, boundaries
}
