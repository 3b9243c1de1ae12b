package rapidd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/trace"
)

// TestRestartAfterInterruptedCompactionRunsJobsOnce: a crash between a
// journal compaction's publish and the old segment's removal leaves both
// segments on disk, and the compacted one repeats every live job's
// submit/admit frames. The restarted daemon must see each job exactly
// once — the duplicated replay used to requeue the same ID twice
// (double execution, double admission booking).
func TestRestartAfterInterruptedCompactionRunsJobsOnce(t *testing.T) {
	dir := t.TempDir()
	frame := func(rec journal.Record) []byte {
		b, err := journal.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spec := []byte(`{"tenant":"acme","kind":"chol","n":90,"seed":41,"procs":2}`)
	submit := frame(journal.Record{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: spec})
	// Segment 1: the pre-compaction log. Segment 2: what compaction
	// published (mark + live frames) before the crash killed the removal.
	seg1 := append(append([]byte(nil), submit...),
		append(frame(journal.Record{Op: journal.OpSubmit, Seq: 2, ID: "j0002", Tenant: "acme", Spec: spec}),
			frame(journal.Record{Op: journal.OpComplete, ID: "j0002", Status: string(StatusDone)})...)...)
	seg2 := append(frame(journal.Record{Op: journal.OpMark, Seq: 2}), submit...)
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), seg2, 0o644); err != nil {
		t.Fatal(err)
	}

	metrics := trace.NewMetrics()
	srv, err := Open(Config{JournalDir: dir, Workers: 2, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j1 := getJob(t, ts, "j0001", true)
	if j1.Status != StatusDone || !j1.Recovered {
		t.Fatalf("recovered job: %s recovered=%v (%s)", j1.Status, j1.Recovered, j1.Error)
	}
	if got := metrics.Get("rapidd.journal.recovered"); got != 1 {
		t.Errorf("recovered counter %d, want 1 (duplicated replay?)", got)
	}
	if got := metrics.Get("rapidd.jobs.submitted"); got != 1 {
		t.Errorf("submitted counter %d, want 1", got)
	}
	if jobs := listJobs(t, ts); len(jobs) != 1 {
		t.Fatalf("job list has %d entries, want 1: %+v", len(jobs), jobs)
	}
	// No budget may remain booked once the recovered job finished.
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("admission state after recovery: inUse=%d queued=%d", inUse, queued)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateSubmitReplayDeduped: a duplicated submit record in the
// log is the journal's to fold away (the first submit stands); the
// restarted daemon sees one job, recovers it once and runs it to done.
func TestDuplicateSubmitReplayDeduped(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"tenant":"acme","kind":"chol","n":90,"seed":43,"procs":2}`)
	seedJournal(t, dir, []journal.Record{
		{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: spec},
		{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: spec},
	})
	metrics := trace.NewMetrics()
	srv, err := Open(Config{JournalDir: dir, Workers: 2, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	j := getJob(t, ts, "j0001", true)
	if j.Status != StatusDone || !j.Recovered {
		t.Fatalf("deduped job: %s recovered=%v (%s)", j.Status, j.Recovered, j.Error)
	}
	if got := metrics.Get("rapidd.journal.recovered"); got != 1 {
		t.Errorf("recovered counter %d, want 1", got)
	}
	if jobs := listJobs(t, ts); len(jobs) != 1 {
		t.Fatalf("job list has %d entries, want 1: %+v", len(jobs), jobs)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentShedCounters: the per-tenant shed counter must be
// mutated under s.mu — concurrent sheds racing metrics readers used to
// trip the race detector and lose increments.
func TestConcurrentShedCounters(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Workers: 1, Metrics: metrics, TenantWeights: map[string]float64{"acme": 1}})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.shed(httptest.NewRecorder(), "acme", prioNormal)
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.handleMetrics(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
		}()
	}
	wg.Wait()
	if got := srv.tenantStat("acme").shed; got != n {
		t.Fatalf("tenant shed counter %d, want %d", got, n)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedSpecRejectedConsistently: the HTTP body cap equals the
// journal's spec cap, so an oversized spec is a 400 on both the
// journal-less and the journaled path — never accepted and then bounced
// with a 500 at the journal write.
func TestOversizedSpecRejectedConsistently(t *testing.T) {
	big := `{"kind":"chol","n":90,"procs":2,"pad":"` + strings.Repeat("x", journal.MaxSpecBytes) + `"}`
	for name, cfg := range map[string]Config{
		"no-journal": {Workers: 1},
		"journal":    {Workers: 1, JournalDir: t.TempDir()},
	} {
		srv := New(cfg)
		ts := httptest.NewServer(srv)
		resp := postSolveBody(t, ts, big, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: oversized spec: HTTP %d, want 400", name, resp.StatusCode)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		ts.Close()
	}
}

// TestLongErrorStillJournalsCompletion: a terminal error longer than the
// journal's field cap must be truncated, not dropped — a missing
// completion record would resurrect the finished job at the next replay.
func TestLongErrorStillJournalsCompletion(t *testing.T) {
	dir := t.TempDir()
	metrics := trace.NewMetrics()
	srv := New(Config{JournalDir: dir, Workers: 1, Metrics: metrics})
	jx := srv.newJob(Job{ID: "jx", Spec: JobSpec{Tenant: "acme"}}, false)
	if err := srv.transition(jx, StatusFailed, errors.New(strings.Repeat("e", 5*journal.MaxFieldBytes))); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Get("rapidd.journal.errors"); got != 0 {
		t.Fatalf("journal.errors %d, want 0 (completion record dropped)", got)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := replayJournal(t, dir)
	var done *journal.Record
	for i, rec := range rep.Records {
		if rec.Op == journal.OpComplete && rec.ID == "jx" {
			done = &rep.Records[i]
		}
	}
	if done == nil {
		t.Fatal("no completion record journaled for the long-error job")
	}
	if len(done.Error) > journal.MaxFieldBytes || !strings.HasSuffix(done.Error, "...(truncated)") {
		t.Fatalf("journaled error not truncated: %d bytes, tail %q", len(done.Error), done.Error[len(done.Error)-20:])
	}
}
