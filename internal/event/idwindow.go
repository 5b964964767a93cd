package event

// IDWindow remembers the last Size distinct event IDs it was shown, for
// duplicate suppression where one event can arrive over two paths (a
// federated subscription's local and remote matches, a query feed that is
// replayed). It grows with what it sees — an idle window holds nothing —
// and is not safe for concurrent use: callers already hold the lock of the
// queue or state the window protects.
type IDWindow struct {
	Size int

	seen  map[string]struct{}
	order []string // insertion order; a ring of Size entries once full
	next  int      // ring position of the oldest ID
}

// Fresh records id and reports whether it was absent from the window,
// forgetting the oldest ID once more than Size are held.
func (w *IDWindow) Fresh(id string) bool {
	if _, dup := w.seen[id]; dup {
		return false
	}
	if w.seen == nil {
		w.seen = make(map[string]struct{})
	}
	w.seen[id] = struct{}{}
	if len(w.order) < w.Size {
		w.order = append(w.order, id)
		return true
	}
	delete(w.seen, w.order[w.next])
	w.order[w.next] = id
	w.next = (w.next + 1) % w.Size
	return true
}
