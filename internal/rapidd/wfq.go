package rapidd

import (
	"context"
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

// wfqueue is the worker pool's one queue: weighted-fair across tenants
// (start-time fair queueing over a virtual clock), FIFO within a tenant,
// with priority-threshold load shedding at the front door, and the memory
// ledger every job books before it executes (admission.go). Under
// contention each tenant drains in proportion to its weight instead of in
// raw arrival order, so one tenant flooding the queue delays mostly
// itself. A job waits in exactly one place: here, first for a worker,
// then — compiled, its demand known — for memory. No worker ever holds a
// job that cannot run.
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

	// The memory ledger (admission.go). avail is AVAIL_MEM (0: unlimited);
	// quotas caps each tenant's share (absent: defaultQuota; 0: uncapped).
	// All three are set before the workers start and never change.
	avail        int64
	quotas       map[string]int64
	defaultQuota int64
	inUse        int64            // booked units; guarded-by: mu
	peak         int64            // highest inUse; guarded-by: mu
	tenantUse    map[string]int64 // booked units per tenant; guarded-by: mu
	waiting      int              // queued jobs that hold a plan: they wait for memory; guarded-by: mu
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
	q := &wfqueue{maxDepth: maxDepth, tenants: make(map[string]*tenantQ), weight: weight, tenantUse: make(map[string]int64)}
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
	tq.insert(tk)
	q.mu.Unlock()
	q.cond.Signal()
}

// requeue puts a compiled job that must wait for memory back into the
// queue at its original stamps, so it keeps its place in the fair order.
// It skips the shed check — the job was accepted once — but counts in the
// backlog. Its context wakes the queue when it ends, so a waiting job's
// deadline or cancellation reaches a worker even if no release comes.
func (q *wfqueue) requeue(tk *job) {
	context.AfterFunc(tk.ctx, q.cond.Broadcast)
	q.mu.Lock()
	tq := q.tenants[tk.Spec.Tenant]
	if tq == nil {
		tq = &tenantQ{lastFinish: tk.vfinish}
		q.tenants[tk.Spec.Tenant] = tq
	}
	tq.insert(tk)
	q.depth++
	q.waiting++
	q.mu.Unlock()
	q.cond.Signal()
}

// insert places tk in vfinish order, after equal stamps; commits almost
// always arrive in reserve order, so this is an append in practice.
func (tq *tenantQ) insert(tk *job) {
	i := sort.Search(len(tq.tasks), func(i int) bool { return tq.tasks[i].vfinish > tk.vfinish })
	tq.tasks = append(tq.tasks, nil)
	copy(tq.tasks[i+1:], tq.tasks[i:])
	tq.tasks[i] = tk
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

// next blocks until a job can make progress and returns it (see
// popLocked): expired, not yet compiled, or compiled and booked. Returns
// nil once the queue is closed and empty. first marks the first call of a
// worker booked by expect: from here on it is counted by where it is, not
// as starting.
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
		if q.closed && q.depth == 0 {
			return nil
		}
		q.idle++
		q.cond.Wait()
		q.idle--
	}
}

// popLocked takes, in WFQ order — the smallest head vfinish, ties by
// tenant name — the first tenant head that can make progress: a job whose
// context has ended, to fail it; a job not yet compiled, since compiling
// books nothing; or a compiled job whose demand fits its tenant's quota
// and the machine budget, which it books. A tenant with no quota headroom,
// or whose compiled head is over its quota, is skipped: its later jobs
// wait behind the head. No compiled job behind one that the machine budget
// blocks is booked, so a large job cannot starve; uncompiled and expired
// jobs still pass.
func (q *wfqueue) popLocked() *job {
	var stop *job
	var stopName string
	if q.waiting > 0 {
		for name, tq := range q.tenants {
			if len(tq.tasks) == 0 {
				continue
			}
			h := tq.tasks[0]
			if h.plan != nil && !h.expired() && q.tenantFitsLocked(name, h.DemandUnits) &&
				!q.globalFitsLocked(h.DemandUnits) && (stop == nil || wfqBefore(h, name, stop, stopName)) {
				stop, stopName = h, name
			}
		}
	}
	var best *tenantQ
	var bestName string
	for name, tq := range q.tenants {
		if len(tq.tasks) == 0 || !q.readyLocked(name, tq.tasks[0], stop, stopName) {
			continue
		}
		if best == nil || wfqBefore(tq.tasks[0], name, best.tasks[0], bestName) {
			best, bestName = tq, name
		}
	}
	if best == nil {
		return nil
	}
	tk := best.tasks[0]
	best.tasks = best.tasks[1:]
	q.depth--
	if tk.plan != nil {
		q.waiting--
		if !tk.expired() {
			q.bookLocked(tk)
		}
	}
	q.forgetIfEmptyLocked(bestName, best)
	if tk.vstart > q.vtime {
		q.vtime = tk.vstart
	}
	return tk
}

// readyLocked reports whether the tenant's head h can make progress now;
// stop is the first compiled head in WFQ order that only the machine
// budget holds back (nil: none).
func (q *wfqueue) readyLocked(tenant string, h, stop *job, stopName string) bool {
	if h.expired() {
		return true
	}
	if quota := q.quota(tenant); quota > 0 && q.tenantUse[tenant] >= quota {
		return false
	}
	if h.plan == nil {
		return true
	}
	return q.tenantFitsLocked(tenant, h.DemandUnits) && q.globalFitsLocked(h.DemandUnits) &&
		(stop == nil || wfqBefore(h, tenant, stop, stopName))
}

// wfqBefore is the fair order of two tenant heads.
func wfqBefore(a *job, aName string, b *job, bName string) bool {
	return a.vfinish < b.vfinish || (a.vfinish == b.vfinish && aName < bName)
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
