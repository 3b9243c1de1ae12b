package rapidd

import "fmt"

// The memory ledger of the queue. Every job books, before it executes,
// the aggregate volatile-memory high-water mark of its compiled MAP plan
// (the sum over processors of the plan's per-processor peaks — the space
// the executor will actually hold, which Theorem 2 bounds by S1/p + h per
// processor for DTS schedules). Jobs are booked while the booked total
// stays within AVAIL_MEM; a job that would overflow it waits in the queue
// — queued, never rejected — until running jobs release enough space.
//
// Multi-tenancy layers sub-quotas on the same budget: each tenant may be
// capped at a slice of AVAIL_MEM, and the invariant is two-sided —
// Σ_tenant tenantUse(t) = inUse ≤ AVAIL_MEM and tenantUse(t) ≤ quota(t).
// The counts are exact: a job's booking is returned once, by release.
// Which waiting job books next is the queue's fair order (popLocked).

// quota returns the tenant's sub-quota (0 = uncapped).
func (q *wfqueue) quota(tenant string) int64 {
	if v, ok := q.quotas[tenant]; ok {
		return v
	}
	return q.defaultQuota
}

// checkDemand refuses a demand that no amount of waiting can book: over
// AVAIL_MEM or the tenant's quota on its own. The caller must replan to a
// smaller footprint first (see planForBudget); a job let into the queue
// with such a demand would block every compiled job behind it forever.
func (q *wfqueue) checkDemand(tenant string, demand int64) error {
	if demand < 0 {
		return fmt.Errorf("rapidd: negative admission demand %d", demand)
	}
	if q.avail > 0 && demand > q.avail {
		return fmt.Errorf("rapidd: job needs %d units but AVAIL_MEM is %d; replan under the budget before admission", demand, q.avail)
	}
	if quota := q.quota(tenant); quota > 0 && demand > quota {
		return fmt.Errorf("rapidd: job needs %d units but tenant %q quota is %d; replan under the quota before admission", demand, tenant, quota)
	}
	return nil
}

// book books a just-compiled job at once if it fits its tenant's quota and
// the machine budget and no job waits for memory; it reports whether tk
// holds a booking — also true for a job the queue booked when it popped
// it. False: tk must wait in the queue (requeue). Whoever gets true must
// release tk on every path.
func (q *wfqueue) book(tk *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !tk.booked && q.waiting == 0 && q.tenantFitsLocked(tk.Spec.Tenant, tk.DemandUnits) && q.globalFitsLocked(tk.DemandUnits) {
		q.bookLocked(tk)
	}
	return tk.booked
}

// release returns tk's booking, if it holds one, and wakes the workers:
// jobs waiting for memory may fit now.
func (q *wfqueue) release(tk *job) {
	q.mu.Lock()
	booked := tk.booked
	if booked {
		tk.booked = false
		tenant := tk.Spec.Tenant
		q.inUse -= tk.DemandUnits
		q.tenantUse[tenant] -= tk.DemandUnits
		if q.tenantUse[tenant] == 0 {
			delete(q.tenantUse, tenant)
		}
	}
	q.mu.Unlock()
	if booked {
		q.cond.Broadcast()
	}
}

func (q *wfqueue) globalFitsLocked(demand int64) bool {
	return q.avail <= 0 || q.inUse+demand <= q.avail
}

func (q *wfqueue) tenantFitsLocked(tenant string, demand int64) bool {
	quota := q.quota(tenant)
	return quota <= 0 || q.tenantUse[tenant]+demand <= quota
}

// bookLocked books tk's demand against both ledgers.
func (q *wfqueue) bookLocked(tk *job) {
	tk.booked = true
	q.inUse += tk.DemandUnits
	q.peak = max(q.peak, q.inUse)
	q.tenantUse[tk.Spec.Tenant] += tk.DemandUnits
}

// snapshot returns (avail, inUse, peak, waiting): waiting counts the
// queued jobs that hold a plan, i.e. wait for memory.
func (q *wfqueue) snapshot() (int64, int64, int64, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.avail, q.inUse, q.peak, q.waiting
}

// tenantSnapshot returns each tenant's booked units (tenants with none
// are omitted) and its count of jobs waiting for memory.
func (q *wfqueue) tenantSnapshot() (inUse map[string]int64, waiting map[string]int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	inUse = make(map[string]int64, len(q.tenantUse))
	for t, u := range q.tenantUse {
		if u != 0 {
			inUse[t] = u
		}
	}
	waiting = make(map[string]int)
	for name, tq := range q.tenants {
		for _, tk := range tq.tasks {
			if tk.plan != nil {
				waiting[name]++
			}
		}
	}
	return inUse, waiting
}
