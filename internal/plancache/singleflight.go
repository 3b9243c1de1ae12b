package plancache

import "sync"

// Group is a duplicate-call suppressor ("single-flight"): concurrent
// DoNotify calls with an equal key run the function once and share its result. It
// is the coalescing mechanism behind the Cache's compile deduplication.
//
// Unlike golang.org/x/sync/singleflight (which this module must not
// depend on), results are not retained after the flight lands: a call
// arriving after the last sharer returned runs the function again. Pair a
// Group with a cache when results should persist.
//
// The zero value is ready to use.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// DoNotify runs fn once per key at a time. The first caller for a key
// executes fn; callers that arrive while it runs block and receive the same
// (val, err) with shared = true. fn runs without any Group lock held, so
// distinct keys proceed in parallel.
//
// A panic in fn propagates to the first caller; sharers are then released
// with a nil result rather than deadlocked.
//
// onAttach (may be nil) fires synchronously when this caller joins another
// caller's in-flight execution, before blocking on its result. Counters that
// mean "requests currently coalesced onto a flight" need the hook: by the
// time DoNotify returns shared=true, the flight has already landed.
func (g *Group) DoNotify(key string, fn func() (any, error), onAttach func()) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if fl, ok := g.flights[key]; ok {
		g.mu.Unlock()
		if onAttach != nil {
			onAttach()
		}
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	g.flights[key] = fl
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	return fl.val, false, fl.err
}
