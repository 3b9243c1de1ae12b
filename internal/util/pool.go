package util

import "sync"

// Pool is a sync.Pool of *T, typed: Get returns a recycled value, or a new
// zero one, and Recycle hands one back for a later Get. What no Get takes
// back within two collections the collector drops, so a Pool holds no
// more than what was recently in use.
type Pool[T any] struct{ p sync.Pool }

// Get returns a recycled *T, or a new one.
func (p *Pool[T]) Get() *T {
	if x, ok := p.p.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Recycle hands x back; the caller must not use it afterwards.
func (p *Pool[T]) Recycle(x *T) { p.p.Put(x) }
