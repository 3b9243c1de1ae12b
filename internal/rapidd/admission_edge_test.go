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
)

// TestAdmissionEdgeCases is the table of boundary behaviours: an unlimited
// controller, exact fits, zero demands, and demands that equal the whole
// budget.
func TestAdmissionEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		avail int64
		steps func(t *testing.T, a *admission)
	}{
		{"unlimited-admits-anything", 0, func(t *testing.T, a *admission) {
			if err := a.acquireCtx(context.Background(), "t", 1<<50, nil); err != nil {
				t.Fatal(err)
			}
			if err := a.acquireCtx(context.Background(), "t", 1<<50, func() { t.Error("unlimited controller queued") }); err != nil {
				t.Fatal(err)
			}
		}},
		{"exact-fit-admits-immediately", 100, func(t *testing.T, a *admission) {
			if err := a.acquireCtx(context.Background(), "t", 100, func() { t.Error("exact fit queued") }); err != nil {
				t.Fatal(err)
			}
			if _, inUse, _, _ := a.snapshot(); inUse != 100 {
				t.Fatalf("inUse %d", inUse)
			}
			a.release("t", 100)
			if err := a.acquireCtx(context.Background(), "t", 100, func() { t.Error("refilled budget queued") }); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-demand-always-fits", 10, func(t *testing.T, a *admission) {
			if err := a.acquireCtx(context.Background(), "t", 10, nil); err != nil {
				t.Fatal(err)
			}
			// An empty queue and a zero demand: admitted without waiting
			// even though the budget is exhausted.
			if err := a.acquireCtx(context.Background(), "t", 0, func() { t.Error("zero demand queued") }); err != nil {
				t.Fatal(err)
			}
		}},
		{"one-over-budget-rejected", 100, func(t *testing.T, a *admission) {
			if err := a.acquireCtx(context.Background(), "t", 101, nil); err == nil {
				t.Fatal("101/100 must be a caller error")
			}
			// The rejection booked nothing.
			if err := a.acquireCtx(context.Background(), "t", 100, nil); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.steps(t, newAdmission(tc.avail, nil, 0)) })
	}
}

// TestAdmissionConcurrentLastBytes races many goroutines for a budget with
// room for exactly one of them at a time: the admitted total must never
// exceed the budget (peak proves it under -race), nothing deadlocks, and
// every unit comes back.
func TestAdmissionConcurrentLastBytes(t *testing.T) {
	a := newAdmission(3, nil, 0)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquireCtx(context.Background(), "t", 3, nil); err != nil {
				t.Error(err)
				return
			}
			a.release("t", 3)
		}()
	}
	wg.Wait()
	_, inUse, peak, queued := a.snapshot()
	if inUse != 0 || queued != 0 {
		t.Fatalf("inUse=%d queued=%d after all releases", inUse, queued)
	}
	if peak != 3 {
		t.Fatalf("peak %d, want exactly 3 (one holder at a time)", peak)
	}
}

// TestAdmissionCancelledWaiterReleasesNothing: a waiter whose context is
// already cancelled is turned away before booking; one cancelled while
// parked leaves the queue without budget and without wedging successors.
func TestAdmissionCancelledWaiterReleasesNothing(t *testing.T) {
	a := newAdmission(10, nil, 0)
	done := context.Background()
	cancelled, cancel := context.WithCancel(done)
	cancel()
	if err := a.acquireCtx(cancelled, "t", 1, nil); err == nil {
		t.Fatal("cancelled context admitted")
	}
	if _, inUse, _, _ := a.snapshot(); inUse != 0 {
		t.Fatalf("cancelled pre-check booked %d units", inUse)
	}

	if err := a.acquireCtx(context.Background(), "t", 8, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancelHead := context.WithCancel(done)
	headQueued := make(chan struct{})
	headDone := make(chan error, 1)
	go func() { headDone <- a.acquireCtx(ctx, "t", 5, func() { close(headQueued) }) }()
	<-headQueued

	// A small job parks behind the (too big) head in FIFO order.
	tailDone := make(chan error, 1)
	tailQueued := make(chan struct{})
	go func() { tailDone <- a.acquireCtx(done, "t", 2, func() { close(tailQueued) }) }()
	<-tailQueued

	// Cancelling the head must re-pump the queue: the tail fits (8+2=10)
	// and gets admitted even though nothing was released.
	cancelHead()
	if err := <-headDone; err == nil {
		t.Fatal("cancelled head admitted")
	}
	select {
	case err := <-tailDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail wedged behind a cancelled head")
	}
	_, inUse, _, queued := a.snapshot()
	if inUse != 10 || queued != 0 {
		t.Fatalf("inUse=%d queued=%d, want 10, 0", inUse, queued)
	}
	a.release("t", 8)
	a.release("t", 2)
	if _, inUse, _, _ := a.snapshot(); inUse != 0 {
		t.Fatalf("inUse=%d after releases", inUse)
	}
}

// TestAdmissionCancelAdmitRace races release-driven admission against
// cancellation over many rounds: whichever side wins, the booked units are
// always returned and the controller ends every round empty.
func TestAdmissionCancelAdmitRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		a := newAdmission(1, nil, 0)
		if err := a.acquireCtx(context.Background(), "t", 1, nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		queued := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- a.acquireCtx(ctx, "t", 1, func() { close(queued) }) }()
		<-queued
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.release("t", 1) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		if err := <-done; err == nil {
			// Admitted: the waiter owns the unit and must release it.
			a.release("t", 1)
		}
		if _, inUse, _, queuedN := a.snapshot(); inUse != 0 || queuedN != 0 {
			t.Fatalf("round %d: inUse=%d queued=%d", round, inUse, queuedN)
		}
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

	// Same structure without verify: no coalescing, parks at admission.
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
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
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
