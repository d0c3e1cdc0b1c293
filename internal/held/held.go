// Package held keeps one buffer between uses, so a caller that needs a
// large scratch slice again and again does not allocate and zero it afresh
// every time.
//
// The rule is the same for every holder: Take empties the store, so a
// buffer is only ever in one caller's hands (a concurrent caller finds the
// store empty and allocates its own); Give keeps the larger of the slice
// given back and the one the store holds, so one buffer, the largest
// caller's, stays live. A Store is not a sync.Pool: a pool drops what it
// holds over two garbage collections, and its users run that many between
// two uses.
package held

import "sync"

// Store holds at most one []T. The zero value is an empty store, safe for
// concurrent use.
type Store[T any] struct {
	mu  sync.Mutex
	buf []T
}

// Take returns a slice of length n: the held one, if it holds n elements,
// or else a new one (the store is empty, or its slice is too small and is
// dropped). Its contents are whatever its last user left. The store is
// empty until the next Give.
func (s *Store[T]) Take(n int) []T {
	s.mu.Lock()
	b := s.buf
	s.buf = nil
	s.mu.Unlock()
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Give hands b back; the store keeps it if it is larger than the slice it
// holds. The caller must not use b afterwards.
func (s *Store[T]) Give(b []T) {
	s.mu.Lock()
	if cap(b) > cap(s.buf) {
		s.buf = b
	}
	s.mu.Unlock()
}
