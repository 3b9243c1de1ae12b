package rapidd

import (
	"context"
	"fmt"
	"sync"
)

// admission is the machine-wide memory-budget admission controller. Every
// job declares, before it may execute, the aggregate volatile-memory
// high-water mark of its compiled MAP plan (the sum over processors of the
// plan's per-processor peaks — the space the executor will actually hold,
// which Theorem 2 bounds by S1/p + h per processor for DTS schedules).
// Jobs are admitted while the sum of admitted demands stays within
// AVAIL_MEM; a job that would overflow the budget waits — queued, never
// rejected — until running jobs release enough space.
//
// Multi-tenancy layers sub-quotas on the same budget: each tenant may be
// capped at a slice of AVAIL_MEM, and the invariant is two-sided —
// Σ_tenant inUse(t) = inUse ≤ AVAIL_MEM and inUse(t) ≤ quota(t). A waiter
// blocked only by its own tenant's quota never blocks other tenants
// (it is skipped, no cross-tenant head-of-line blocking), while a waiter
// blocked by the machine budget holds strict FIFO so the global queue
// cannot starve. Within one tenant, order stays FIFO.
type admission struct {
	mu    sync.Mutex
	avail int64     // 0 = unlimited; set at construction, immutable after
	inUse int64     // guarded-by: mu
	queue []*waiter // guarded-by: mu

	// peakInUse records the highest admitted total, for stats.
	peakInUse int64 // guarded-by: mu

	// quotas caps each tenant's share of AVAIL_MEM (absent/0: use
	// defaultQuota; defaultQuota 0: uncapped). Both immutable after
	// construction.
	quotas       map[string]int64
	defaultQuota int64
	tenantUse    map[string]int64 // guarded-by: mu

	// onHeadroom, when set, fires after any state change that can give a
	// previously-stuck tenant admission headroom (a release, or a waiter
	// leaving the queue). The dispatch queue uses it to re-examine tasks
	// it skipped for lack of headroom. Called with mu NOT held.
	onHeadroom func()
}

type waiter struct {
	tenant   string
	demand   int64
	admitted chan struct{}
}

func newAdmission(avail int64, quotas map[string]int64, defaultQuota int64) *admission {
	return &admission{
		avail:        avail,
		quotas:       quotas,
		defaultQuota: defaultQuota,
		tenantUse:    make(map[string]int64),
	}
}

// quota returns the tenant's sub-quota (0 = uncapped).
func (a *admission) quota(tenant string) int64 {
	if q, ok := a.quotas[tenant]; ok {
		return q
	}
	return a.defaultQuota
}

// acquireCtx blocks until demand units fit under both the machine budget
// and the tenant's quota. onQueue (may be nil) fires exactly once if the
// caller has to wait, before blocking — callers use it to expose a
// "queued" state. Demands larger than the whole budget or the tenant
// quota are rejected with an error: the caller must replan to a smaller
// footprint first (see planForBudget), so a failure here is a caller bug,
// not load.
//
// A waiter whose context expires (per-job deadline) or is cancelled
// (client disconnect, shed) leaves the queue without ever booking budget —
// and without wedging the jobs parked behind it, which are re-pumped in
// case the departed waiter was the too-big head. If admission and
// cancellation race, the booked units are released before returning the
// context error, so either way no budget can leak from a caller that does
// not run.
func (a *admission) acquireCtx(ctx context.Context, tenant string, demand int64, onQueue func()) error {
	if demand < 0 {
		return fmt.Errorf("rapidd: negative admission demand %d", demand)
	}
	a.mu.Lock()
	if a.avail > 0 && demand > a.avail {
		a.mu.Unlock()
		return fmt.Errorf("rapidd: job needs %d units but AVAIL_MEM is %d; replan under the budget before admission", demand, a.avail)
	}
	if q := a.quota(tenant); q > 0 && demand > q {
		a.mu.Unlock()
		return fmt.Errorf("rapidd: job needs %d units but tenant %q quota is %d; replan under the quota before admission", demand, tenant, q)
	}
	if err := ctx.Err(); err != nil {
		a.mu.Unlock()
		return err
	}
	w := &waiter{tenant: tenant, demand: demand, admitted: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.pumpLocked()
	if admitted(w) {
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	if onQueue != nil {
		onQueue()
	}
	select {
	case <-w.admitted:
		return nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.pumpLocked()
			a.mu.Unlock()
			a.notifyHeadroom()
			return ctx.Err()
		}
	}
	a.mu.Unlock()
	// Lost the race: pump admitted us concurrently with cancellation.
	// Give the units straight back.
	<-w.admitted
	a.release(tenant, demand)
	return ctx.Err()
}

func admitted(w *waiter) bool {
	select {
	case <-w.admitted:
		return true
	default:
		return false
	}
}

// release returns demand units and admits queued jobs that now fit.
func (a *admission) release(tenant string, demand int64) {
	a.mu.Lock()
	a.inUse -= demand
	if a.inUse < 0 {
		a.inUse = 0
	}
	a.tenantUse[tenant] -= demand
	if a.tenantUse[tenant] <= 0 {
		delete(a.tenantUse, tenant)
	}
	a.pumpLocked()
	a.mu.Unlock()
	a.notifyHeadroom()
}

// notifyHeadroom invokes the headroom hook outside the lock (the hook
// broadcasts on the dispatch queue's condition variable, whose lock must
// never nest inside a.mu — the queue's pop path holds its own lock while
// calling dispatchable, which takes a.mu).
func (a *admission) notifyHeadroom() {
	if a.onHeadroom != nil {
		a.onHeadroom()
	}
}

// dispatchable reports whether handing another of the tenant's jobs to a
// worker can make progress now: the tenant must have queue-free admission
// (no waiter of its own already parked — per-tenant FIFO means a new job
// would just park behind it) and quota headroom (a tenant sitting exactly
// at its cap cannot admit anything more until it releases). The check is a
// heuristic, not a reservation: a job's demand is only known after
// compilation, so a dispatched job may still park at admission briefly —
// but a tenant this predicate rejects would park its job with certainty,
// wedging a pool slot for no gain.
func (a *admission) dispatchable(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range a.queue {
		if w.tenant == tenant {
			return false
		}
	}
	if q := a.quota(tenant); q > 0 && a.tenantUse[tenant] >= q {
		return false
	}
	return true
}

// pumpLocked admits queued waiters while budgets allow. A waiter blocked only
// by its tenant quota is skipped — and so is every later waiter of that
// tenant, preserving per-tenant FIFO — so one tenant at its cap cannot
// block the rest. A waiter blocked by the machine budget stops the scan:
// strict FIFO against the global budget, trading utilization for no
// starvation. Called with mu held.
func (a *admission) pumpLocked() {
	var blocked map[string]bool
	for i := 0; i < len(a.queue); {
		w := a.queue[i]
		if blocked[w.tenant] || !a.tenantFitsLocked(w.tenant, w.demand) {
			if blocked == nil {
				blocked = make(map[string]bool)
			}
			blocked[w.tenant] = true
			i++
			continue
		}
		if !a.globalFitsLocked(w.demand) {
			break
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		a.admitLocked(w)
	}
}

func (a *admission) globalFitsLocked(demand int64) bool {
	return a.avail <= 0 || a.inUse+demand <= a.avail
}

func (a *admission) tenantFitsLocked(tenant string, demand int64) bool {
	q := a.quota(tenant)
	return q <= 0 || a.tenantUse[tenant]+demand <= q
}

// admitLocked books the waiter's demand against both ledgers. Called with mu
// held.
func (a *admission) admitLocked(w *waiter) {
	a.inUse += w.demand
	if a.inUse > a.peakInUse {
		a.peakInUse = a.inUse
	}
	a.tenantUse[w.tenant] += w.demand
	close(w.admitted)
}

// snapshot returns (avail, inUse, peakInUse, queued).
func (a *admission) snapshot() (int64, int64, int64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.avail, a.inUse, a.peakInUse, len(a.queue)
}

// tenantSnapshot returns each tenant's booked units (tenants with zero
// booked units are omitted) and the count of queued waiters per tenant.
func (a *admission) tenantSnapshot() (inUse map[string]int64, queued map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	inUse = make(map[string]int64, len(a.tenantUse))
	for t, u := range a.tenantUse {
		inUse[t] = u
	}
	queued = make(map[string]int)
	for _, w := range a.queue {
		queued[w.tenant]++
	}
	return inUse, queued
}
