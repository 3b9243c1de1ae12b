package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Metrics is a thread-safe registry of named monotonic counters. It is
// the recorder's numeric sibling: where Recorder captures timed spans for
// Gantt rendering, Metrics captures event counts from long-running
// components (the plan cache's hits/misses/evictions, the daemon's
// admissions). A nil *Metrics is valid and discards everything, mirroring
// Recorder.Add.
type Metrics struct {
	mu sync.Mutex
	c  map[string]int64
}

// NewMetrics returns an empty counter registry.
func NewMetrics() *Metrics {
	return &Metrics{c: make(map[string]int64)}
}

// Inc adds delta to the named counter, creating it at zero if absent.
func (m *Metrics) Inc(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.c[name] += delta
	m.mu.Unlock()
}

// Get returns the current value of the named counter (zero if absent).
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c[name]
}

// Snapshot returns a copy of all counters.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.c))
	for k, v := range m.c {
		out[k] = v
	}
	return out
}

// String renders the counters one per line in name order.
func (m *Metrics) String() string {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s %d\n", k, snap[k])
	}
	return b.String()
}
