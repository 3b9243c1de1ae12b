package rapidd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func postSolveRaw(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want ...JobStatus) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := getJob(t, ts, id, false)
		for _, w := range want {
			if j.Status == w {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s (%s)", id, j.Status, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerExecutesJobsInParallel proves the pool actually overlaps
// executions: two distinct jobs both reach the execution hook before either
// is released. A serial server would deadlock here (guarded by a timeout).
func TestServerExecutesJobsInParallel(t *testing.T) {
	g := newGate(nil)
	srv := New(Config{Workers: 2, QueueDepth: 4, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	a := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 31, Procs: 2})
	b := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 32, Procs: 2})
	g.wait(t)
	g.wait(t) // a serial pool never gets here
	g.open()
	for _, id := range []string{a.ID, b.ID} {
		if j := getJob(t, ts, id, true); j.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
	}
}

// TestServerShedsWhenQueueFull: with one worker and no queue buffer, a
// request arriving while the worker is busy is shed with 429 + Retry-After
// — in O(1), leaving no job record — and job IDs stay dense afterwards.
func TestServerShedsWhenQueueFull(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{
		Workers:    -1, // clamp to 1
		QueueDepth: -1, // unbuffered: accept only if a worker is idle
		RetryAfter: 1500 * time.Millisecond,
		Metrics:    metrics,
		hooks:      hooks{exec: g.exec},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	// The unbuffered enqueue succeeds only when the worker receives it, so
	// once this returns the single worker is provably busy with j0001,
	// which the gate holds.
	j1 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 11, Procs: 2})
	if j1.ID != "j0001" {
		t.Fatalf("first job ID %q", j1.ID)
	}

	resp := postSolveRaw(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 12, Procs: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload response HTTP %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" && got != "3" && got != "4" {
		t.Fatalf("Retry-After %q, want in [2, 4] (1.5s rounded up, plus up to one base of jitter)", got)
	}
	if metrics.Get("rapidd.jobs.shed") != 1 {
		t.Fatalf("shed counter %d, want 1", metrics.Get("rapidd.jobs.shed"))
	}

	// The shed request left no trace: once the worker frees up, the next
	// accepted job takes the next dense ID and completes normally.
	g.open()
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j.Status, j.Error)
	}
	j3 := solveSync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 13, Procs: 2})
	if j3.ID != "j0002" || j3.Status != StatusDone {
		t.Fatalf("post-shed job %q %s, want j0002 done", j3.ID, j3.Status)
	}
}

// TestFreshServerNeverSheds: "an idle server never sheds anything" holds
// from the moment Open returns. A one-worker server with no backlog used to
// refuse a request posted before its worker goroutine had parked in next():
// only parked workers counted as capacity, and Open returns right after
// the go statement.
func TestFreshServerNeverSheds(t *testing.T) {
	body := `{"kind":"chol","n":8,"procs":1}`
	for round := 0; round < 200; round++ {
		srv := New(Config{Workers: 1, QueueDepth: -1})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if rec.Code == http.StatusTooManyRequests {
			t.Fatalf("round %d: a just-opened idle server shed its first request", round)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: HTTP %d: %s", round, rec.Code, rec.Body)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerCoalescesIdenticalInflightSpecs: while one request for a spec
// is executing, a second identical request joins it instead of executing
// again — one execution, two completed jobs, the follower marked coalesced.
func TestServerCoalescesIdenticalInflightSpecs(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{Workers: 2, QueueDepth: 4, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	spec := JobSpec{Kind: "chol", N: 90, Seed: 21, Procs: 2}
	a := solveAsync(t, ts, spec)
	// The hook runs after admission: the leader is registered and held.
	g.wait(t)
	b := solveAsync(t, ts, spec)
	deadline := time.Now().Add(10 * time.Second)
	for metrics.Get("rapidd.jobs.coalesced") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight execution")
		}
		time.Sleep(time.Millisecond)
	}
	g.open()

	ja := getJob(t, ts, a.ID, true)
	jb := getJob(t, ts, b.ID, true)
	if ja.Status != StatusDone || jb.Status != StatusDone {
		t.Fatalf("jobs: %s (%s) / %s (%s)", ja.Status, ja.Error, jb.Status, jb.Error)
	}
	if ja.Coalesced {
		t.Fatal("leader must not be marked coalesced")
	}
	if !jb.Coalesced || jb.CoalescedWith != ja.ID {
		t.Fatalf("follower coalesced=%v with=%q, want true with %q", jb.Coalesced, jb.CoalescedWith, ja.ID)
	}
	if jb.Fingerprint == "" || jb.Fingerprint != ja.Fingerprint {
		t.Fatalf("fingerprints %q vs %q", ja.Fingerprint, jb.Fingerprint)
	}
	if got := metrics.Get("rapidd.jobs.completed"); got != 2 {
		t.Fatalf("completed counter %d, want 2", got)
	}
	if got := metrics.Get("rapidd.jobs.coalesced"); got != 1 {
		t.Fatalf("coalesced counter %d, want 1", got)
	}
}

// TestServerDeadlineExpiresInQueue: a queued job whose deadline passes
// before a worker picks it up fails with a deadline error — it never
// executes and never books budget.
func TestServerDeadlineExpiresInQueue(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(seeds(41))
	srv := New(Config{Workers: -1, QueueDepth: 1, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	j1 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 41, Procs: 2})
	g.wait(t)

	// The one worker is held while j2's deadline passes in the queue.
	j2 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 42, Procs: 2, DeadlineMS: 50})
	srv.mu.Lock()
	expired := srv.jobs[j2.ID].ctx.Done()
	srv.mu.Unlock()
	<-expired
	g.open()
	fin := getJob(t, ts, j2.ID, true)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "expired before execution") {
		t.Fatalf("queued-past-deadline job: %s (%q)", fin.Status, fin.Error)
	}
	if metrics.Get("rapidd.jobs.deadline_expired") != 1 {
		t.Fatalf("deadline_expired counter %d, want 1", metrics.Get("rapidd.jobs.deadline_expired"))
	}
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j.Status, j.Error)
	}
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("expired job left admission state: inUse=%d queued=%d", inUse, queued)
	}
}

// TestServerDeadlineDuringAdmissionWait: a job parked waiting for AVAIL_MEM
// whose deadline expires fails without booking budget, and the units the
// running job holds are untouched.
func TestServerDeadlineDuringAdmissionWait(t *testing.T) {
	spec := JobSpec{Kind: "chol", N: 100, Seed: 5, Procs: 3}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{AvailMem: ref.DemandUnits * 3 / 2, Workers: 2, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	j1 := solveAsync(t, ts, spec)
	g.wait(t)

	// Differs only in its deadline, so no coalescing; same footprint, so
	// it must wait for admission — and expire there.
	short := spec
	short.DeadlineMS = 80
	j2 := solveSync(t, ts, short)
	if j2.Status != StatusFailed || !strings.Contains(j2.Error, "deadline") {
		t.Fatalf("admission-parked job: %s (%q), want deadline failure", j2.Status, j2.Error)
	}
	if metrics.Get("rapidd.jobs.queued") == 0 {
		t.Error("job 2 never reached the admission queue")
	}
	if metrics.Get("rapidd.jobs.deadline_expired") != 1 {
		t.Errorf("deadline_expired counter %d, want 1", metrics.Get("rapidd.jobs.deadline_expired"))
	}
	g.open()
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j.Status, j.Error)
	}
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("admission state leaked: inUse=%d queued=%d", inUse, queued)
	}
}

// TestServerCancelQueuedJob: cancelling a queued job aborts it before
// execution; cancelling an unknown ID reports false.
func TestServerCancelQueuedJob(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(seeds(51))
	srv := New(Config{Workers: -1, QueueDepth: 1, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	j1 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 51, Procs: 2})
	g.wait(t)
	j2 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 52, Procs: 2})
	if !srv.Cancel(j2.ID) {
		t.Fatal("Cancel returned false for a live job")
	}
	g.open()
	fin := getJob(t, ts, j2.ID, true)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "expired before execution") {
		t.Fatalf("cancelled job: %s (%q)", fin.Status, fin.Error)
	}
	if metrics.Get("rapidd.jobs.cancelled") != 1 {
		t.Fatalf("cancelled counter %d, want 1", metrics.Get("rapidd.jobs.cancelled"))
	}
	if srv.Cancel("nope") {
		t.Fatal("Cancel returned true for an unknown job")
	}
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j.Status, j.Error)
	}
}

// TestServerDrain: drain finishes the backlog, then refuses new work with
// 503; calling it again is a no-op.
func TestServerDrain(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{Workers: 2, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	var ids []string
	for i := 0; i < 3; i++ {
		j := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: uint64(61 + i), Procs: 2})
		ids = append(ids, j.ID)
	}
	// The backlog is still in flight when the drain begins.
	g.wait(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		draining = srv.draining
		srv.mu.Unlock()
	}
	g.open()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if j := getJob(t, ts, id, false); j.Status != StatusDone {
			t.Fatalf("job %s after drain: %s (%s)", id, j.Status, j.Error)
		}
	}

	resp := postSolveRaw(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 70, Procs: 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve HTTP %d, want 503", resp.StatusCode)
	}
	if metrics.Get("rapidd.jobs.refused_draining") != 1 {
		t.Fatalf("refused_draining counter %d, want 1", metrics.Get("rapidd.jobs.refused_draining"))
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	stats := readMetrics(t, ts.URL)
	if stats["rapidd_workers"] != 2 || stats["rapidd_draining"] != 1 {
		t.Fatalf("metrics workers=%v draining=%v, want 2, 1", stats["rapidd_workers"], stats["rapidd_draining"])
	}
}
