package rapidd

import (
	"testing"
	"time"
)

func wfqPush(q *wfqueue, tenant string, prio int) bool {
	sl, ok := q.reserve(tenant, prio, false)
	if !ok {
		return false
	}
	q.commit(sl, &job{Job: Job{ID: tenant, Spec: JobSpec{Tenant: tenant}}})
	return true
}

// TestWFQWeightedDrainOrder: a 3:1 weighted pair drains 3:1 under
// contention, and equal virtual finishes break ties by tenant name, so
// the pop order is fully deterministic.
func TestWFQWeightedDrainOrder(t *testing.T) {
	weights := map[string]float64{"a": 3, "b": 1}
	q := newWFQueue(64, func(tn string) float64 { return weights[tn] })
	for i := 0; i < 12; i++ {
		if !wfqPush(q, "a", prioNormal) || !wfqPush(q, "b", prioNormal) {
			t.Fatal("push shed below capacity")
		}
	}
	got := ""
	for i := 0; i < 8; i++ {
		got += q.next(false).Spec.Tenant
	}
	// vfinish for a: 1/3, 2/3, 1, 4/3 ...; for b: 1, 2. In the first 8
	// pops a takes 6 and b 2 — the 3:1 weight ratio — and at the equal
	// finish 1, a goes first by name.
	if got != "aaabaaab" {
		t.Fatalf("first 8 pops %q, want aaabaaab", got)
	}
}

// TestWFQReturningTenantGainsOneShare: a tenant that empties its queue and
// comes back starts at the current virtual time, so it gains at most one
// 1/weight on a backlogged tenant (DESIGN.md §10): it may take one pop
// ahead of the backlog, not jump it.
func TestWFQReturningTenantGainsOneShare(t *testing.T) {
	q := newWFQueue(64, nil)
	wfqPush(q, "b", prioNormal)
	if got := q.next(false).Spec.Tenant; got != "b" {
		t.Fatalf("pop %q, want b", got)
	}
	for i := 0; i < 10; i++ {
		wfqPush(q, "a", prioNormal)
	}
	for i := 0; i < 5; i++ {
		q.next(false)
	}
	for i := 0; i < 3; i++ {
		wfqPush(q, "b", prioNormal)
	}
	got, lead := "", 0
	for i := 0; i < 8; i++ {
		tn := q.next(false).Spec.Tenant
		got += tn
		if tn == "b" {
			lead++
		} else {
			lead--
		}
		if lead > 1 {
			t.Fatalf("pops %q after b came back: b is %d pops ahead of a's backlog, want at most 1", got, lead)
		}
	}
}

// TestWFQFIFOWithinTenant: one tenant's jobs leave in arrival order.
func TestWFQFIFOWithinTenant(t *testing.T) {
	q := newWFQueue(16, nil)
	for i := 0; i < 5; i++ {
		sl, ok := q.reserve("t", prioNormal, false)
		if !ok {
			t.Fatal("shed below capacity")
		}
		q.commit(sl, &job{Job: Job{ID: string(rune('a' + i))}})
	}
	for i := 0; i < 5; i++ {
		if got := q.next(false).ID; got != string(rune('a'+i)) {
			t.Fatalf("pop %d = %q", i, got)
		}
	}
}

// TestWFQPriorityThresholds: with no idle workers a depth-4 queue admits
// low to half, normal to three quarters, high to the end; force bypasses
// the check (journal recovery).
func TestWFQPriorityThresholds(t *testing.T) {
	q := newWFQueue(4, nil)
	if !wfqPush(q, "t", prioLow) || !wfqPush(q, "t", prioLow) {
		t.Fatal("low shed before its half share")
	}
	if wfqPush(q, "t", prioLow) {
		t.Fatal("3rd low accepted past half depth")
	}
	if !wfqPush(q, "t", prioNormal) {
		t.Fatal("normal shed before its 3/4 share")
	}
	if wfqPush(q, "t", prioNormal) {
		t.Fatal("4th normal accepted past 3/4 depth")
	}
	if !wfqPush(q, "t", prioHigh) {
		t.Fatal("high shed below full depth")
	}
	if wfqPush(q, "t", prioHigh) {
		t.Fatal("high accepted past full depth")
	}
	if sl, ok := q.reserve("t", prioLow, true); !ok {
		t.Fatal("forced reserve shed")
	} else {
		q.abort(sl)
	}
	if d, c := q.stats(); d != 4 || c != 4 {
		t.Fatalf("stats %d/%d, want 4/4", d, c)
	}
	if got := q.depths()["t"]; got != 4 {
		t.Fatalf("tenant depth %d, want 4", got)
	}
}

// TestWFQTinyQueueAcceptsEachClass: integer rounding must not shrink a
// class's share to zero — a depth-1 queue accepts one job of any class.
func TestWFQTinyQueueAcceptsEachClass(t *testing.T) {
	for _, prio := range []int{prioLow, prioNormal, prioHigh} {
		q := newWFQueue(1, nil)
		if !wfqPush(q, "t", prio) {
			t.Fatalf("depth-1 queue shed priority %s", priorityName(prio))
		}
		if wfqPush(q, "t", prio) {
			t.Fatalf("depth-1 queue accepted a 2nd %s", priorityName(prio))
		}
	}
}

// TestWFQIdleWorkerHandoff: an unbuffered queue (maxDepth 0) accepts a
// job exactly when a worker is parked in next() — the channel-handoff
// semantics the pre-WFQ pool had.
func TestWFQIdleWorkerHandoff(t *testing.T) {
	q := newWFQueue(0, nil)
	if _, ok := q.reserve("t", prioHigh, false); ok {
		t.Fatal("unbuffered queue accepted with no idle worker")
	}
	got := make(chan *job)
	go func() { got <- q.next(false) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ok := wfqPush(q, "t", prioLow); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle worker never counted as capacity")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case tk := <-got:
		if tk == nil {
			t.Fatal("worker got nil from an open queue")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handoff never reached the worker")
	}
	q.close()
	if q.next(false) != nil {
		t.Fatal("closed empty queue returned a task")
	}
}

// TestWFQAbortFreesCapacity: an aborted reservation (journal write
// failure) releases the slot for the next request.
func TestWFQAbortFreesCapacity(t *testing.T) {
	q := newWFQueue(1, nil)
	sl, ok := q.reserve("t", prioNormal, false)
	if !ok {
		t.Fatal("reserve shed on an empty queue")
	}
	if _, ok := q.reserve("t", prioNormal, false); ok {
		t.Fatal("second reserve fit a full queue")
	}
	q.abort(sl)
	if !wfqPush(q, "t", prioNormal) {
		t.Fatal("reserve shed after abort freed the slot")
	}
}

// TestWFQCloseDrainsBacklog: close lets queued tasks drain, then workers
// get nil.
func TestWFQCloseDrainsBacklog(t *testing.T) {
	q := newWFQueue(8, nil)
	for i := 0; i < 3; i++ {
		wfqPush(q, "t", prioNormal)
	}
	q.close()
	for i := 0; i < 3; i++ {
		if q.next(false) == nil {
			t.Fatalf("pop %d: backlog lost at close", i)
		}
	}
	if q.next(false) != nil {
		t.Fatal("drained closed queue returned a task")
	}
}

func TestParsePriorityNames(t *testing.T) {
	for name, want := range map[string]int{"": prioNormal, "normal": prioNormal, "low": prioLow, "high": prioHigh} {
		got, ok := parsePriority(name)
		if !ok || got != want {
			t.Errorf("parsePriority(%q) = %d, %v", name, got, ok)
		}
	}
	if _, ok := parsePriority("urgent"); ok {
		t.Error("parsePriority accepted an unknown class")
	}
	for _, p := range []int{prioLow, prioNormal, prioHigh} {
		if got, ok := parsePriority(priorityName(p)); !ok || got != p {
			t.Errorf("priorityName round-trip broke for %d", p)
		}
	}
}
