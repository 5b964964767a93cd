package main

import (
	"os"
	"path/filepath"

	"thematicep/internal/wal"
)

// walSnapshotSubs caps the registrations the snapshot probe journals: a
// snapshot is one record, and wal refuses to reload a record above 1 MiB
// (about 5,500 of these subscriptions), so a larger population could be
// written but never replayed.
const walSnapshotSubs = 4000

// wal times the journal's calls on real files: a subscribe record under
// each fsync policy, a snapshot of the population, and the open that
// replays it.
func (p *probes) wal() error {
	appendUnder := func(policy string, n int) (float64, error) {
		dir := filepath.Join(p.dir, "wal-"+policy)
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		pol, err := wal.ParseFsyncPolicy(policy)
		if err != nil {
			return 0, err
		}
		// No auto-snapshot: the appends are timed alone.
		l, _, err := wal.Open(dir, wal.Options{Fsync: pol, SnapshotEvery: -1})
		if err != nil {
			return 0, err
		}
		per := p.each("wal.append_"+policy, n, func(i int) {
			s := p.in.Subs[i%len(p.in.Subs)]
			l.Subscribed(s.ID, s)
		})
		return us(per), l.Close()
	}
	always, err := appendUnder("always", 256)
	if err != nil {
		return err
	}
	never, err := appendUnder("never", 2048)
	if err != nil {
		return err
	}

	dir := filepath.Join(p.dir, "wal-snapshot")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	pol, _ := wal.ParseFsyncPolicy("never")
	l, _, err := wal.Open(dir, wal.Options{Fsync: pol, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	n := min(len(p.in.Subs), walSnapshotSubs)
	for _, s := range p.in.Subs[:n] {
		l.Subscribed(s.ID, s)
	}
	root, done := p.group("wal.snapshot")
	snap := p.call(root, "wal.snapshot", func() { err = l.Snapshot() })
	done()
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	root, done = p.group("wal.open_replay")
	replay := p.call(root, "wal.open_replay", func() { l, _, err = wal.Open(dir, wal.Options{Fsync: pol}) })
	done()
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}

	p.set("wal.append_always_us", always, "us", 256)
	p.set("wal.append_never_us", never, "us", 2048)
	p.set("wal.snapshot_ms", ms(snap), "ms", n)
	p.set("wal.open_replay_ms", ms(replay), "ms", n)
	return nil
}
