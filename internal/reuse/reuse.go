// Package reuse keeps values one user is done with for the next user to
// take, for as long as the garbage collector has not wanted them.
package reuse

import (
	"sync"
	"weak"
)

// List is a last-in, first-out list of idle values held by weak
// pointers: Get returns the value most recently Put — the one whose
// memory is likeliest still in a cache — and a value nobody has taken by
// the collector's next cycle is the collector's. That is the whole
// retention policy: an idle process keeps nothing, a busy one keeps what
// it used since the last cycle, and there is no size to configure.
// (sync.Pool's per-P slots and victim generation keep a multiple of what
// is in use; a strong free list keeps the largest value ever put, for
// ever.)
//
// The zero List is empty and ready to use; it must not be copied.
type List[T any] struct {
	mu   sync.Mutex
	idle []weak.Pointer[T]
}

// Get removes and returns the most recently Put value that is still
// alive, or nil when there is none. The caller owns the value until it
// Puts it back, or drops it.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := len(l.idle); n > 0; n-- {
		v := l.idle[n-1].Value()
		l.idle = l.idle[:n-1]
		if v != nil {
			return v
		}
	}
	return nil
}

// Put hands v over: the caller keeps no reference it will use.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	l.idle = append(l.idle, weak.Make(v))
	l.mu.Unlock()
}
