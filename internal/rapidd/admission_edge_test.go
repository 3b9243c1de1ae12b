package rapidd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/rapid"
)

// ledgerQueue is a queue with the memory budget Open would give it.
func ledgerQueue(avail int64, quotas map[string]int64) *wfqueue {
	q := newWFQueue(64, nil)
	q.avail, q.quotas = avail, quotas
	return q
}

// enqueue commits a fresh job of the tenant, as the submit handler does.
func enqueue(q *wfqueue, tenant string, ctx context.Context) *job {
	sl, _ := q.reserve(tenant, prioNormal, true)
	j := &job{Job: Job{ID: tenant, Spec: JobSpec{Tenant: tenant}}, ctx: ctx}
	q.commit(sl, j)
	return j
}

// pop is one pop of a worker that does not wait: nil if no job can make
// progress now.
func pop(q *wfqueue) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// compileNext pops the next job, which must be j, and compiles it to a
// plan of demand units, as a worker does: the queue books it at once or it
// goes back to wait for memory. It reports whether j was booked.
func compileNext(t *testing.T, q *wfqueue, j *job, demand int64) bool {
	t.Helper()
	if got := pop(q); got != j {
		t.Fatalf("popped %v, want the job %s to compile", got, j.ID)
	}
	j.plan, j.DemandUnits = &rapid.Plan{}, demand
	if q.book(j) {
		return true
	}
	q.requeue(j)
	return false
}

// compiled submits a job of the tenant and compiles it to demand units.
func compiled(t *testing.T, q *wfqueue, tenant string, demand int64) (*job, bool) {
	t.Helper()
	j := enqueue(q, tenant, context.Background())
	return j, compileNext(t, q, j, demand)
}

// checkLedger asserts the ledger's invariant: Σ tenant in-use = in-use ≤
// AVAIL_MEM, each tenant within its quota.
func checkLedger(t *testing.T, q *wfqueue) {
	t.Helper()
	avail, inUse, peak, _ := q.snapshot()
	byTenant, _ := q.tenantSnapshot()
	var sum int64
	for tenant, u := range byTenant {
		sum += u
		if quota := q.quota(tenant); quota > 0 && u > quota {
			t.Fatalf("tenant %s holds %d units over its quota %d", tenant, u, quota)
		}
	}
	if sum != inUse || inUse < 0 || (avail > 0 && inUse > avail) || peak < inUse {
		t.Fatalf("ledger: Σ tenants %d, in use %d, peak %d, AVAIL_MEM %d", sum, inUse, peak, avail)
	}
}

// TestAdmissionFIFO: a compiled job that fits books at once; the next one
// that overflows the budget waits in the queue; a later one that would fit
// waits behind it; releases book from the head.
func TestAdmissionFIFO(t *testing.T) {
	q := ledgerQueue(100, nil)
	a, ok := compiled(t, q, "t", 60)
	if !ok {
		t.Fatal("first job must book at once")
	}
	b, ok := compiled(t, q, "t", 60)
	if ok {
		t.Fatal("60+60 over a budget of 100 booked")
	}
	// Another tenant's job, which would fit (60+10 <= 100), waits behind
	// the head: a job already waits for memory.
	c, ok := compiled(t, q, "u", 10)
	if ok {
		t.Fatal("FIFO violated: a small job booked past one waiting for memory")
	}
	if got := pop(q); got != nil {
		t.Fatalf("popped %s while the head waits for memory", got.ID)
	}
	q.release(a)
	if pop(q) != b || pop(q) != c || !b.booked || !c.booked {
		t.Fatal("releases must book the waiting jobs in order")
	}
	if _, inUse, peak, waiting := q.snapshot(); inUse != 70 || peak != 70 || waiting != 0 {
		t.Fatalf("inUse=%d peak=%d waiting=%d, want 70, 70, 0", inUse, peak, waiting)
	}
	q.release(b)
	q.release(c)
	if _, inUse, _, _ := q.snapshot(); inUse != 0 {
		t.Fatalf("inUse=%d after all releases", inUse)
	}
}

// TestAdmissionOversizedIsCallerError: a demand over AVAIL_MEM or the
// tenant's quota on its own, or a negative one, is refused before the job
// may wait — no amount of waiting would book it.
func TestAdmissionOversizedIsCallerError(t *testing.T) {
	q := ledgerQueue(100, map[string]int64{"small": 50})
	if err := q.checkDemand("t", 101); err == nil {
		t.Fatal("demand above AVAIL_MEM must error (caller should have replanned)")
	}
	if err := q.checkDemand("small", 51); err == nil {
		t.Fatal("demand above the tenant quota must error")
	}
	if err := q.checkDemand("t", -1); err == nil {
		t.Fatal("negative demand must error")
	}
	if err := q.checkDemand("t", 100); err != nil {
		t.Fatal(err)
	}
	// An unlimited queue takes any demand.
	if err := ledgerQueue(0, nil).checkDemand("t", 1<<40); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionEdgeCases is the table of boundary behaviours: an unlimited
// budget, exact fits, zero demands, and demands that equal the whole
// budget.
func TestAdmissionEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		avail int64
		steps func(t *testing.T, q *wfqueue)
	}{
		{"unlimited-admits-anything", 0, func(t *testing.T, q *wfqueue) {
			for i := 0; i < 2; i++ {
				if _, ok := compiled(t, q, "t", 1<<50); !ok {
					t.Fatal("unlimited budget made a job wait")
				}
			}
		}},
		{"exact-fit-admits-immediately", 100, func(t *testing.T, q *wfqueue) {
			j, ok := compiled(t, q, "t", 100)
			if !ok {
				t.Fatal("exact fit waited")
			}
			if _, inUse, _, _ := q.snapshot(); inUse != 100 {
				t.Fatalf("inUse %d", inUse)
			}
			q.release(j)
			if _, ok := compiled(t, q, "t", 100); !ok {
				t.Fatal("refilled budget waited")
			}
		}},
		{"zero-demand-always-fits", 10, func(t *testing.T, q *wfqueue) {
			if _, ok := compiled(t, q, "t", 10); !ok {
				t.Fatal("exact fit waited")
			}
			// No job waits and the demand is zero: booked at once even
			// though the budget is exhausted.
			if _, ok := compiled(t, q, "t", 0); !ok {
				t.Fatal("zero demand waited")
			}
		}},
		{"one-over-budget-rejected", 100, func(t *testing.T, q *wfqueue) {
			if err := q.checkDemand("t", 101); err == nil {
				t.Fatal("101/100 must be a caller error")
			}
			// The refusal booked nothing.
			if _, ok := compiled(t, q, "t", 100); !ok {
				t.Fatal("the whole budget is free, yet the job waited")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.steps(t, ledgerQueue(tc.avail, nil)) })
	}
}

// TestAdmissionConcurrentLastBytes races workers for a budget with room
// for exactly one job at a time, each job compiled, booked or sent back to
// wait, then released, as solve does: the booked total never exceeds the
// budget (peak proves it under -race), nothing deadlocks, no worker ever
// holds a job that waits, and every unit comes back.
func TestAdmissionConcurrentLastBytes(t *testing.T) {
	const jobs = 24
	q := ledgerQueue(3, nil)
	q.expect(4)
	var wg sync.WaitGroup
	var finished sync.WaitGroup
	finished.Add(jobs)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := q.next(true); j != nil; j = q.next(false) {
				if j.plan == nil {
					j.plan, j.DemandUnits = &rapid.Plan{}, 3
				}
				if !q.book(j) {
					q.requeue(j)
					continue
				}
				q.release(j)
				finished.Done()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		enqueue(q, "t", context.Background())
	}
	finished.Wait()
	q.close()
	wg.Wait()
	_, inUse, peak, waiting := q.snapshot()
	if inUse != 0 || waiting != 0 {
		t.Fatalf("inUse=%d waiting=%d after all releases", inUse, waiting)
	}
	if peak != 3 {
		t.Fatalf("peak %d, want exactly 3 (one holder at a time)", peak)
	}
}

// TestAdmissionCancelledWaiterReleasesNothing: a job whose context has
// ended pops to fail without booking; one cancelled while it waits for
// memory leaves the queue without budget and without wedging the jobs
// behind it — the queue books them though nothing was released.
func TestAdmissionCancelledWaiterReleasesNothing(t *testing.T) {
	q := ledgerQueue(10, nil)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if j := enqueue(q, "t", cancelled); pop(q) != j || j.booked {
		t.Fatal("a cancelled job must pop unbooked, to fail")
	}

	holder, _ := compiled(t, q, "h", 8)
	ctx, cancelHead := context.WithCancel(context.Background())
	head := enqueue(q, "a", ctx)
	if compileNext(t, q, head, 5) {
		t.Fatal("8+5 over a budget of 10 booked")
	}
	// A small job of another tenant waits behind the (too big) head.
	tail, ok := compiled(t, q, "b", 2)
	if ok || pop(q) != nil {
		t.Fatal("the tail booked past the head that waits for memory")
	}

	// Cancelling the head lets it pop, to fail, and the tail books (8+2).
	cancelHead()
	if pop(q) != head || head.booked {
		t.Fatal("the cancelled head must pop unbooked")
	}
	if pop(q) != tail || !tail.booked {
		t.Fatal("tail wedged behind a cancelled head")
	}
	if _, inUse, _, waiting := q.snapshot(); inUse != 10 || waiting != 0 {
		t.Fatalf("inUse=%d waiting=%d, want 10, 0", inUse, waiting)
	}
	q.release(holder)
	q.release(tail)
	if _, inUse, _, _ := q.snapshot(); inUse != 0 {
		t.Fatalf("inUse=%d after releases", inUse)
	}
}

// TestAdmissionCancelAdmitRace races the release that lets a waiting job
// book against that job's cancellation, with a worker popping beside
// them, over many rounds: whichever side wins, the worker's one release —
// on the failure path or after running, as in solve — returns exactly
// what the queue booked, and the ledger ends every round empty.
func TestAdmissionCancelAdmitRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := ledgerQueue(1, nil)
		holder, _ := compiled(t, q, "t", 1)
		ctx, cancel := context.WithCancel(context.Background())
		waiter := enqueue(q, "t", ctx)
		if compileNext(t, q, waiter, 1) {
			t.Fatal("second unit booked over a budget of 1")
		}
		popped := make(chan *job)
		go func() { popped <- q.next(false) }()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); q.release(holder) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		j := <-popped
		if j != waiter {
			t.Fatalf("round %d: popped %v, want the waiting job", round, j)
		}
		var want int64 // what the queue booked for j: all of it, or nothing
		if j.booked {
			want = 1
		}
		if _, inUse, _, _ := q.snapshot(); inUse != want {
			t.Fatalf("round %d: inUse=%d with the job booked %v", round, inUse, j.booked)
		}
		q.release(j)
		if _, inUse, _, waiting := q.snapshot(); inUse != 0 || waiting != 0 {
			t.Fatalf("round %d: inUse=%d waiting=%d", round, inUse, waiting)
		}
	}
}

// TestQueueLedgerExact books and releases across two tenants under both
// budgets: after every step Σ tenant in-use = in-use ≤ AVAIL_MEM, a
// second release of a job gives nothing back twice, and everything ends
// at zero.
func TestQueueLedgerExact(t *testing.T) {
	q := ledgerQueue(10, map[string]int64{"a": 6})
	var held []*job
	for _, step := range []struct {
		tenant string
		demand int64
		books  bool
	}{{"a", 4, true}, {"b", 3, true}, {"a", 2, true}, {"b", 1, true}} {
		j, ok := compiled(t, q, step.tenant, step.demand)
		if ok != step.books {
			t.Fatalf("%s/%d booked %v, want %v", step.tenant, step.demand, ok, step.books)
		}
		held = append(held, j)
		checkLedger(t, q)
	}
	// a is at its quota, and the machine has 0 free: a double release of
	// b's job must not hand its units back twice.
	q.release(held[1])
	q.release(held[1])
	checkLedger(t, q)
	if _, inUse, _, _ := q.snapshot(); inUse != 7 {
		t.Fatalf("inUse %d after one release of 3 from 10, want 7", inUse)
	}
	for _, j := range held {
		q.release(j)
		checkLedger(t, q)
	}
	byTenant, _ := q.tenantSnapshot()
	if _, inUse, _, waiting := q.snapshot(); inUse != 0 || waiting != 0 || len(byTenant) != 0 {
		t.Fatalf("ledger not empty: inUse=%d waiting=%d tenants=%v", inUse, waiting, byTenant)
	}
}

// TestQueueMemoryWaitOrder: a compiled head the machine budget blocks
// keeps later compiled jobs of every tenant from booking ahead of it,
// while uncompiled jobs still pop; a tenant over its quota holds up only
// itself; and the memory waits drain in WFQ order.
func TestQueueMemoryWaitOrder(t *testing.T) {
	q := ledgerQueue(10, map[string]int64{"capped": 4})
	capped, _ := compiled(t, q, "capped", 4)
	holder, _ := compiled(t, q, "h", 5)
	big := enqueue(q, "a", context.Background())
	if compileNext(t, q, big, 6) {
		t.Fatal("4+5+6 over 10 booked")
	}
	small := enqueue(q, "b", context.Background())
	if compileNext(t, q, small, 1) {
		t.Fatal("a small job booked at once while a job waits for memory")
	}
	// The quota-blocked tenant's next job stays uncompiled in the queue;
	// a fresh tenant's job still pops to compile.
	overQuota := enqueue(q, "capped", context.Background())
	fresh := enqueue(q, "c", context.Background())
	if got := pop(q); got != fresh {
		t.Fatalf("popped %v, want the uncompiled job of an unblocked tenant", got)
	}
	if got := pop(q); got != nil {
		t.Fatalf("popped %s: a compiled job booked behind the blocked head, or the capped tenant ran over its quota", got.ID)
	}
	// Freeing the quota lets only the capped tenant move: its job pops to
	// compile, and the memory waits still hold.
	q.release(capped)
	if got := pop(q); got != overQuota {
		t.Fatalf("popped %v, want the capped tenant's job", got)
	}
	if got := pop(q); got != nil {
		t.Fatalf("popped %s ahead of the head that waits for memory", got.ID)
	}
	// Freeing the machine drains the waits in WFQ order: big, then small.
	q.release(holder)
	if pop(q) != big || pop(q) != small || !big.booked || !small.booked {
		t.Fatal("memory waits did not drain in WFQ order")
	}
	checkLedger(t, q)
	q.release(big)
	q.release(small)
	if _, inUse, _, waiting := q.snapshot(); inUse != 0 || waiting != 0 {
		t.Fatalf("inUse=%d waiting=%d at the end", inUse, waiting)
	}
}

// TestServerClientDisconnectReleasesBudget: a synchronous client that goes
// away while its job waits for admission aborts the job — the wait ends,
// nothing is booked, and the budget drains to zero once the running job
// finishes.
func TestServerClientDisconnectReleasesBudget(t *testing.T) {
	spec := JobSpec{Kind: "chol", N: 100, Seed: 5, Procs: 3}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	metrics := trace.NewMetrics()
	g := newGate(func(s JobSpec) bool { return s.Verify })
	srv := New(Config{AvailMem: ref.DemandUnits * 3 / 2, Workers: 2, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	hold := spec
	hold.Verify = true
	j1 := solveAsync(t, ts, hold)
	g.wait(t)

	// Same structure without verify: the gate passes it, and it parks at admission.
	body := `{"kind":"chol","n":100,"seed":5,"procs":3}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve?wait=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until the job is parked at admission, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for metrics.Get("rapidd.jobs.queued") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued at admission")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request reported success")
	}

	// The abandoned job must fail without booking; find it via the list.
	var abandoned string
	for _, j := range listJobs(t, ts) {
		if j.ID != j1.ID {
			abandoned = j.ID
		}
	}
	if abandoned == "" {
		t.Fatal("abandoned job not in the list")
	}
	fin := getJob(t, ts, abandoned, true)
	if fin.Status != StatusFailed {
		t.Fatalf("abandoned job: %s (%s)", fin.Status, fin.Error)
	}
	g.open()
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j.Status, j.Error)
	}
	if _, inUse, _, queued := srv.queue.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("disconnect leaked admission state: inUse=%d queued=%d", inUse, queued)
	}
	if metrics.Get("rapidd.jobs.cancelled") != 1 {
		t.Errorf("cancelled counter %d, want 1", metrics.Get("rapidd.jobs.cancelled"))
	}
}

func listJobs(t *testing.T, ts *httptest.Server) []Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	return jobs
}
