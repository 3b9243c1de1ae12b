package rapidd

import (
	"sort"
	"sync"
)

// Priority classes. Overload sheds low-priority traffic first: each class
// may only fill a fraction of the backlog, so by the time the queue is
// half full new low-priority work is already being refused while high
// keeps the full depth. The numeric order is load-shedding order.
const (
	prioLow    = 0
	prioNormal = 1
	prioHigh   = 2
)

func parsePriority(name string) (int, bool) {
	switch name {
	case "low":
		return prioLow, true
	case "", "normal":
		return prioNormal, true
	case "high":
		return prioHigh, true
	}
	return 0, false
}

func priorityName(p int) string {
	switch p {
	case prioLow:
		return "low"
	case prioHigh:
		return "high"
	}
	return "normal"
}

// wfqueue is the worker pool's ready queue: weighted-fair across tenants
// (start-time fair queueing over a virtual clock), FIFO within a tenant,
// with priority-threshold load shedding at the front door. It replaces
// the PR-5 global FIFO channel: under contention each tenant drains in
// proportion to its weight instead of in raw arrival order, so one tenant
// flooding the queue delays mostly itself.
//
// Enqueueing is two-phase so the daemon can write the job to the
// write-ahead journal between reserving a slot and making the job
// visible to workers: reserve (capacity + virtual-clock stamp, under the
// lock) → journal append (no lock) → commit (job becomes poppable).
// A journal failure aborts the reservation; workers never see a job
// whose submit record is not durable, so the journal cannot record an
// admit before its submit.
type wfqueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool // guarded-by: mu

	maxDepth int // buffered capacity; 0 = handoff to an idle worker only
	depth    int // reserved-or-queued tasks; guarded-by: mu
	idle     int // workers parked in next(); guarded-by: mu
	starting int // workers announced by expect, not yet in their first next(); guarded-by: mu

	vtime   float64             // guarded-by: mu
	tenants map[string]*tenantQ // guarded-by: mu
	weight  func(tenant string) float64

	// dispatchable, when set, gates the pop: a tenant for which it reports
	// false is skipped, so workers never pick up a job that would only park
	// at admission and wedge a pool slot (tenant isolation must hold at any
	// Workers size, not just Workers > quota-blocked backlog). The filter
	// is bypassed once the queue is closed: drain must pop every remaining
	// task so its job can terminate (cancelled or run), not strand it.
	// Whoever opens headroom must wake() the queue, or skipped tasks sleep
	// until the next unrelated signal.
	dispatchable func(tenant string) bool
}

type tenantQ struct {
	tasks      []*job // sorted by vfinish (== commit order per tenant)
	reserved   int    // reserved-not-yet-committed slots
	lastFinish float64
}

// wslot is a reserved queue slot: the capacity unit plus the job's
// virtual-clock stamps, assigned atomically at reservation time so WFQ
// order matches arrival order even when commits race.
type wslot struct {
	tenant          string
	vstart, vfinish float64
}

func newWFQueue(maxDepth int, weight func(string) float64) *wfqueue {
	if weight == nil {
		weight = func(string) float64 { return 1 }
	}
	q := &wfqueue{maxDepth: maxDepth, tenants: make(map[string]*tenantQ), weight: weight}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// prioLimit is the backlog fraction a priority class may fill: low stops
// at half, normal at three quarters, high uses the whole depth. The
// fractions round up, so a small queue never rounds a class's share to
// zero (a depth-1 queue still accepts one job of any class). Idle
// workers always count as extra capacity (the channel-handoff semantics
// of the pre-WFQ pool), so an idle server never sheds anything — from
// the moment it opens: a worker counts from expect, not from whenever the
// scheduler first runs its goroutine.
func (q *wfqueue) prioLimit(prio int) int {
	switch prio {
	case prioLow:
		return (q.maxDepth + 1) / 2
	case prioNormal:
		return (q.maxDepth*3 + 3) / 4
	}
	return q.maxDepth
}

// reserve claims a queue slot for one job of the tenant, stamping it with
// the tenant's next virtual start/finish. ok=false means the class's
// backlog share is full — shed. force bypasses the capacity check
// (journal recovery re-queues jobs the previous daemon already accepted).
func (q *wfqueue) reserve(tenant string, prio int, force bool) (wslot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !force && q.depth >= q.prioLimit(prio)+q.idle+q.starting {
		return wslot{}, false
	}
	tq := q.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{}
		q.tenants[tenant] = tq
	}
	w := q.weight(tenant)
	if w <= 0 {
		w = 1
	}
	vstart := q.vtime
	if tq.lastFinish > vstart {
		vstart = tq.lastFinish
	}
	sl := wslot{tenant: tenant, vstart: vstart, vfinish: vstart + 1/w}
	tq.lastFinish = sl.vfinish
	tq.reserved++
	q.depth++
	return sl, true
}

// commit stamps the job with its reservation's virtual times and makes it
// visible to workers.
func (q *wfqueue) commit(sl wslot, tk *job) {
	tk.vstart, tk.vfinish = sl.vstart, sl.vfinish
	q.mu.Lock()
	tq := q.tenants[sl.tenant]
	tq.reserved--
	// Insert in vfinish order; commits almost always arrive in reserve
	// order, so this is an append in practice.
	i := sort.Search(len(tq.tasks), func(i int) bool { return tq.tasks[i].vfinish > tk.vfinish })
	tq.tasks = append(tq.tasks, nil)
	copy(tq.tasks[i+1:], tq.tasks[i:])
	tq.tasks[i] = tk
	q.mu.Unlock()
	q.cond.Signal()
}

// abort releases a reserved slot whose journal write failed. The virtual
// clock is not rolled back — a later reservation of the same tenant may
// already build on it — which only nudges that tenant's share for one
// round.
func (q *wfqueue) abort(sl wslot) {
	q.mu.Lock()
	tq := q.tenants[sl.tenant]
	tq.reserved--
	q.depth--
	q.forgetIfEmptyLocked(sl.tenant, tq)
	q.mu.Unlock()
	q.cond.Signal()
}

// forgetIfEmptyLocked drops a tenant's entry once it holds no task and no
// reservation, so the map is bounded by the tenants with work in the
// queue, not by every name a client ever sent. The entry's lastFinish
// goes with it: a tenant that empties its queue and comes back starts at
// the current virtual time (see DESIGN.md §10).
func (q *wfqueue) forgetIfEmptyLocked(tenant string, tq *tenantQ) {
	if len(tq.tasks) == 0 && tq.reserved == 0 {
		delete(q.tenants, tenant)
	}
}

// expect books n workers that are about to be started as idle capacity.
// Each of them passes first=true on its first call of next.
func (q *wfqueue) expect(n int) {
	q.mu.Lock()
	q.starting += n
	q.mu.Unlock()
}

// next blocks until a task is available and returns the fair-queueing
// choice: the tenant whose head task has the smallest virtual finish
// (ties by tenant name, for determinism). Returns nil once the queue is
// closed and fully drained. first marks the first call of a worker booked
// by expect: from here on it is counted by where it is, not as starting.
func (q *wfqueue) next(first bool) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if first {
		q.starting--
	}
	for {
		if tk := q.popLocked(); tk != nil {
			return tk
		}
		if q.closed && q.reservedLocked() == 0 {
			return nil
		}
		q.idle++
		q.cond.Wait()
		q.idle--
	}
}

// reservedLocked counts reserved-not-committed slots; drain must wait for
// them (their journal append is in progress).
func (q *wfqueue) reservedLocked() int {
	n := 0
	for _, tq := range q.tenants {
		n += tq.reserved
	}
	return n
}

func (q *wfqueue) popLocked() *job {
	var best *tenantQ
	var bestName string
	for name, tq := range q.tenants {
		if len(tq.tasks) == 0 {
			continue
		}
		if !q.closed && q.dispatchable != nil && !q.dispatchable(name) {
			continue
		}
		if best == nil || tq.tasks[0].vfinish < best.tasks[0].vfinish ||
			(tq.tasks[0].vfinish == best.tasks[0].vfinish && name < bestName) {
			best, bestName = tq, name
		}
	}
	if best == nil {
		return nil
	}
	tk := best.tasks[0]
	best.tasks = best.tasks[1:]
	q.depth--
	q.forgetIfEmptyLocked(bestName, best)
	if tk.vstart > q.vtime {
		q.vtime = tk.vstart
	}
	return tk
}

// wake re-runs every parked worker's pop. Admission calls it (via the
// headroom hook) when a release or a departing waiter may have turned a
// skipped tenant dispatchable again.
func (q *wfqueue) wake() {
	q.cond.Broadcast()
}

// close stops intake (reserve still succeeds only for forced recovery
// pushes, which cannot happen after close in practice) and wakes every
// parked worker so the backlog drains and workers exit.
func (q *wfqueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// stats returns (queued+reserved, capacity).
func (q *wfqueue) stats() (depth, capacity int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth, q.maxDepth
}

// depths returns the per-tenant queued-task count (empty tenants
// omitted) — the queue-depth gauge behind /metrics.
func (q *wfqueue) depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	for name, tq := range q.tenants {
		if n := len(tq.tasks) + tq.reserved; n > 0 {
			out[name] = n
		}
	}
	return out
}
