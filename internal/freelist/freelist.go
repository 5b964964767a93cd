// Package freelist is the one pooling rule of the scoring and publish
// paths: scratch that outlives a call is recycled through a bounded free
// list, not a sync.Pool.
package freelist

// List is a bounded list of spare values for reuse, a buffered channel read
// and written without blocking; make(List[T], n) holds up to n. Unlike a
// sync.Pool it keeps what it holds across GC cycles, and under the race
// detector (which drops pool items at random), so a warm borrower gets a
// warm value back. Get returns nil when the list is empty, and Put leaves
// the value to the GC when the list is full.
type List[T any] chan *T

// Get borrows a spare value, or returns nil if there is none.
func (l List[T]) Get() *T {
	select {
	case x := <-l:
		return x
	default:
		return nil
	}
}

// Put returns a value to the list.
func (l List[T]) Put(x *T) {
	select {
	case l <- x:
	default:
	}
}
