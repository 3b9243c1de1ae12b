package rapidd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/trace"
)

// faultServer builds a journaled server on an injectable filesystem with
// a fast re-arm loop, plus its test frontend.
func faultServer(t *testing.T, mode string) (*Server, *httptest.Server, *iofault.FaultFS, *trace.Metrics) {
	t.Helper()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	metrics := trace.NewMetrics()
	srv, err := Open(Config{
		JournalDir:   t.TempDir(),
		JournalFS:    ffs,
		Workers:      2,
		DegradedMode: mode,
		RearmBackoff: time.Millisecond,
		Metrics:      metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return srv, ts, ffs, metrics
}

func healthzCode(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func waitHealthz(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for healthzCode(t, ts) != want {
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reached %d", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedRejectRoundTrip walks the whole state machine under the
// default reject policy: a healthy submit is acked Durable:true; a disk
// fault degrades the daemon on the next submit (503), flips /healthz to
// 503 + JSON, and keeps refusing; healing lets the re-arm loop rotate
// onto a fresh segment and the daemon serves durably again.
func TestDegradedRejectRoundTrip(t *testing.T) {
	_, ts, ffs, metrics := faultServer(t, DegradedReject)

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 3, Procs: 2})
	if j.Status != StatusDone || !j.Durable {
		t.Fatalf("healthy job: status=%s durable=%v, want done/true", j.Status, j.Durable)
	}
	if healthzCode(t, ts) != http.StatusOK {
		t.Fatal("healthy daemon not ready")
	}

	ffs.Break(iofault.ClassSync, syscall.EIO)
	resp := postSolveRaw(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 4, Procs: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with dead disk: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded refusal carries no Retry-After")
	}
	resp.Body.Close()

	// /healthz now reports the degraded state machine as JSON.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while degraded: HTTP %d, want 503", hr.StatusCode)
	}
	var snap struct {
		State string `json:"state"`
		Mode  string `json:"degraded_mode"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	hr.Body.Close()
	if snap.State == "durable" || snap.Mode != DegradedReject {
		t.Fatalf("healthz snapshot %+v, want degraded/recovering with mode reject", snap)
	}

	// Still degraded (the fast gate, no journal touch): submits refuse.
	resp2 := postSolveRaw(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 5, Procs: 2})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second submit while degraded: HTTP %d, want 503", resp2.StatusCode)
	}
	if metrics.Get("rapidd.jobs.refused_degraded") < 1 {
		t.Error("refused_degraded counter did not advance")
	}

	ffs.Heal()
	waitHealthz(t, ts, http.StatusOK)
	if metrics.Get("rapidd.health.rearms") == 0 || metrics.Get("rapidd.health.degraded_windows") != 1 {
		t.Errorf("rearms=%d windows=%d, want >=1/1",
			metrics.Get("rapidd.health.rearms"), metrics.Get("rapidd.health.degraded_windows"))
	}
	if metrics.Gauge("rapidd.health.state") != int64(HealthDurable) {
		t.Errorf("health gauge %d after recovery, want %d", metrics.Gauge("rapidd.health.state"), HealthDurable)
	}
	j2 := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 6, Procs: 2})
	if j2.Status != StatusDone || !j2.Durable {
		t.Fatalf("post-recovery job: status=%s durable=%v, want done/true", j2.Status, j2.Durable)
	}
}

// TestDegradedServeStampsNonDurable: under the availability-first policy
// the daemon keeps serving through a dead disk, but the acknowledgement
// says Durable:false — the weaker guarantee is visible, not silent.
func TestDegradedServeStampsNonDurable(t *testing.T) {
	_, ts, ffs, metrics := faultServer(t, DegradedServe)

	ffs.Break(iofault.ClassDurability, syscall.EIO)
	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 9, Procs: 2})
	if j.Status != StatusDone {
		t.Fatalf("serve-mode job under dead disk: %s (%s)", j.Status, j.Error)
	}
	if j.Durable {
		t.Fatal("job acked Durable:true while the journal was degraded")
	}
	if metrics.Get("rapidd.jobs.nondurable") == 0 {
		t.Error("nondurable counter did not advance")
	}
	if healthzCode(t, ts) != http.StatusServiceUnavailable {
		t.Error("serve mode must still report not-ready on /healthz")
	}

	ffs.Heal()
	waitHealthz(t, ts, http.StatusOK)
	j2 := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 10, Procs: 2})
	if j2.Status != StatusDone || !j2.Durable {
		t.Fatalf("post-recovery job: status=%s durable=%v, want done/true", j2.Status, j2.Durable)
	}
}

// TestHealthzWithoutJournal: no journal, no durability promise to break —
// the daemon is always ready and jobs are visibly non-durable.
func TestHealthzWithoutJournal(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if healthzCode(t, ts) != http.StatusOK {
		t.Fatal("journal-less daemon not ready")
	}
	if j := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 2, Procs: 2}); j.Durable {
		t.Fatal("journal-less job claims durability")
	}
}

// TestBadDegradedModeRejected: a typo'd policy fails at Open, not at the
// first outage.
func TestBadDegradedModeRejected(t *testing.T) {
	if _, err := Open(Config{DegradedMode: "shrug"}); err == nil {
		t.Fatal("Open accepted degraded mode \"shrug\"")
	}
}

// TestNegativeJobTimeoutRejected: a negative watchdog deadline fails at
// Open. Passed through, it made the executor report a deadlock on the
// first processor that blocked, so every job failed.
func TestNegativeJobTimeoutRejected(t *testing.T) {
	_, err := Open(Config{JobTimeout: -time.Second})
	if err == nil || !strings.Contains(err.Error(), "negative JobTimeout") {
		t.Fatalf("Open with JobTimeout -1s: %v, want a negative JobTimeout error", err)
	}
}

// TestJobWaitReturnsWhenClientGone: a GET /v1/jobs/{id}?wait=1 whose
// client disconnects must release the handler goroutine instead of
// parking it until the job finishes.
func TestJobWaitReturnsWhenClientGone(t *testing.T) {
	srv := New(Config{Workers: 1})
	// The job waits at the gate until the abandoned wait is proven over.
	gate := make(chan struct{})
	srv.execHook = func(JobSpec) { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveAsync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 11, Procs: 2})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"?wait=1", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		srv.ServeHTTP(httptest.NewRecorder(), req)
		close(returned)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("handler still parked after the waiting client left")
	}
	// The job itself is unaffected and still completes.
	close(gate)
	if got := getJob(t, ts, j.ID, true); got.Status != StatusDone {
		t.Fatalf("job after abandoned wait: %s (%s)", got.Status, got.Error)
	}
}
