package rapidd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/journal"
	"repro/internal/trace"
)

// faultServer builds a journaled server on an injectable filesystem with
// a fast re-arm loop, plus its test frontend.
func faultServer(t *testing.T) (*Server, *httptest.Server, *iofault.FaultFS, *trace.Metrics) {
	t.Helper()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	metrics := trace.NewMetrics()
	srv, err := Open(Config{
		JournalDir: t.TempDir(),
		Workers:    2,
		Metrics:    metrics,
		hooks:      hooks{journalFS: ffs, rearmBackoff: time.Millisecond},
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

// TestDegradedRejectRoundTrip walks a whole fault window: a healthy
// submit is acked Durable:true; a disk fault degrades the journal on the
// next submit (503), flips /healthz to 503 + JSON, and keeps refusing;
// healing lets the re-arm loop compact onto a fresh segment and the
// daemon serves durably again.
func TestDegradedRejectRoundTrip(t *testing.T) {
	srv, ts, ffs, metrics := faultServer(t)

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

	// /healthz now reports the degraded journal as JSON.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while degraded: HTTP %d, want 503", hr.StatusCode)
	}
	var snap struct {
		State string `json:"state"`
		Cause string `json:"cause"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	hr.Body.Close()
	if snap.State != "degraded" || snap.Cause == "" {
		t.Fatalf("healthz snapshot %+v, want degraded with a cause", snap)
	}

	// Still degraded (the gate reads the journal's flag; no write): submits refuse.
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
	if st := srv.jnl.Stats(); st.Rearms != 1 {
		t.Errorf("rearms=%d after one fault window, want 1", st.Rearms)
	}
	if srv.degraded() {
		t.Error("journal degraded after recovery")
	}
	j2 := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 6, Procs: 2})
	if j2.Status != StatusDone || !j2.Durable {
		t.Fatalf("post-recovery job: status=%s durable=%v, want done/true", j2.Status, j2.Durable)
	}
}

// TestSyncCompactionPoison: a Sync can succeed and still leave the
// journal degraded. The fsync goes through, the compaction it triggers
// can neither make its published root durable (the directory fsync
// fails) nor roll it back (the remove fails), and the journal poisons
// itself while Sync returns nil. The daemon reads the journal, not the
// errors it was handed, so /healthz and the submit gate refuse at once,
// and the re-arm loop brings the journal back once the disk heals.
func TestSyncCompactionPoison(t *testing.T) {
	srv, ts, ffs, _ := faultServer(t)

	// 80 finished jobs with 16 KiB specs: a segment past the 1 MiB
	// compaction threshold that is almost all dead weight.
	spec := bytes.Repeat([]byte{'x'}, 16<<10)
	var pos journal.Pos
	for i := 1; i <= 80; i++ {
		id := fmt.Sprintf("c%04d", i)
		if _, err := srv.jnl.Write(journal.Record{Op: journal.OpSubmit, Seq: uint64(i), ID: id,
			Tenant: "default", Priority: "normal", Spec: spec}); err != nil {
			t.Fatal(err)
		}
		p, err := srv.jnl.Write(journal.Record{Op: journal.OpComplete, ID: id, Status: string(StatusDone)})
		if err != nil {
			t.Fatal(err)
		}
		pos = p
	}

	ffs.Break(iofault.ClassSyncDir|iofault.ClassRemove, syscall.EIO)
	if err := srv.journalSyncCounted(pos); err != nil {
		t.Fatalf("sync: %v, want nil (the fsync itself succeeds)", err)
	}
	if st := srv.jnl.Stats(); !st.Degraded || st.CompactFailures != 1 {
		t.Fatalf("after the compaction: degraded=%v compact failures=%d, want true and 1", st.Degraded, st.CompactFailures)
	}
	if code := healthzCode(t, ts); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a poisoned journal: HTTP %d, want 503", code)
	}
	resp := postSolveRaw(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 4, Procs: 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with a poisoned journal: HTTP %d, want 503", resp.StatusCode)
	}

	ffs.Heal()
	waitHealthz(t, ts, http.StatusOK)
	if st := srv.jnl.Stats(); st.Rearms != 1 {
		t.Errorf("rearms=%d after the heal, want 1", st.Rearms)
	}
	if j := solveSync(t, ts, JobSpec{Kind: "chol", N: 80, Seed: 5, Procs: 2}); j.Status != StatusDone || !j.Durable {
		t.Fatalf("job after the re-arm: status=%s durable=%v, want done/true", j.Status, j.Durable)
	}
}

// TestRearmBackoffCapped: while re-arms fail the loop's wait doubles from
// the base to 32× it and stays there; the first durable check puts it back
// to the base.
func TestRearmBackoffCapped(t *testing.T) {
	const base = rearmBackoff
	backoff := base
	for i, step := range []struct {
		durable bool
		want    time.Duration
	}{
		{false, 2 * base}, {false, 4 * base}, {false, 8 * base}, {false, 16 * base},
		{false, 32 * base}, {false, 32 * base}, {false, 32 * base},
		{true, base}, {false, 2 * base}, {true, base}, {true, base},
	} {
		if backoff = nextRearmBackoff(backoff, base, step.durable); backoff != step.want {
			t.Fatalf("step %d (durable %v): backoff %v, want %v", i, step.durable, backoff, step.want)
		}
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
	// The job waits at the gate until the abandoned wait is proven over.
	g := newGate(nil)
	srv := New(Config{Workers: 1, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

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
	g.open()
	if got := getJob(t, ts, j.ID, true); got.Status != StatusDone {
		t.Fatalf("job after abandoned wait: %s (%s)", got.Status, got.Error)
	}
}
