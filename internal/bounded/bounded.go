// Package bounded provides the process-wide stores in which the
// simulator keeps what it derives from content that never changes
// between cells — class images, generated programs, IPA's rewrites — so
// that every cell after the first shares one read-only copy.
package bounded

import "sync"

// Map is a mutex-guarded map from byte-string keys to values that holds
// at most its bound: storing a new key when the map is full clears it
// first, so a process that keeps meeting new keys retains at most that
// many values. Every caller that gets a value shares it, so a stored
// value must never be written.
type Map[V any] struct {
	mu  sync.Mutex
	max int
	m   map[string]V
}

// New returns an empty map holding at most max values.
func New[V any](max int) *Map[V] {
	return &Map[V]{max: max, m: make(map[string]V)}
}

// Get returns the value stored under key. It allocates nothing.
func (s *Map[V]) Get(key []byte) (V, bool) {
	s.mu.Lock()
	v, ok := s.m[string(key)]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under key, first clearing the map when key is new and
// the map is full.
func (s *Map[V]) Put(key []byte, v V) {
	s.mu.Lock()
	if _, ok := s.m[string(key)]; !ok && len(s.m) >= s.max {
		clear(s.m)
	}
	s.m[string(key)] = v
	s.mu.Unlock()
}

// Len returns the number of stored values.
func (s *Map[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Clear empties the map.
func (s *Map[V]) Clear() {
	s.mu.Lock()
	clear(s.m)
	s.mu.Unlock()
}

// Range calls f on every entry, in no fixed order, holding the lock: f
// must not call back into s.
func (s *Map[V]) Range(f func(key string, v V)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		f(k, v)
	}
}

// keyBufs recycles the buffers keys are encoded into.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// KeyBuf returns an empty recycled buffer to encode a key into. Hand it
// back with PutKeyBuf once the key is no longer used, so that a lookup
// allocates nothing.
func KeyBuf() *[]byte {
	b := keyBufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutKeyBuf recycles a buffer KeyBuf returned.
func PutKeyBuf(b *[]byte) { keyBufs.Put(b) }
