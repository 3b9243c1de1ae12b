package rapidd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/trace"
)

// TestSyncJobCostsOneFsync: a synchronous job writes three journal records
// — submit, admit, complete — and pays one fsync, for its answer. An
// asynchronous job pays one for its acknowledgement and one for the answer
// that reports its end; asking again costs nothing.
func TestSyncJobCostsOneFsync(t *testing.T) {
	srv := New(Config{JournalDir: t.TempDir(), Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cost := func(f func()) (records, syncs int64) {
		t.Helper()
		before := srv.jnl.Stats()
		f()
		after := srv.jnl.Stats()
		return after.Records - before.Records, after.Syncs - before.Syncs
	}

	spec := JobSpec{Kind: "chol", N: 90, Seed: 1, Procs: 2}
	var job Job
	if records, syncs := cost(func() { job = solveSync(t, ts, spec) }); records != 3 || syncs != 1 {
		t.Fatalf("synchronous job: %d records, %d fsyncs; want 3 and 1", records, syncs)
	}
	if job.Status != StatusDone || !job.Durable {
		t.Fatalf("synchronous job: %s durable=%v (%s)", job.Status, job.Durable, job.Error)
	}

	spec.Seed = 2
	var ack Job
	if _, syncs := cost(func() { ack = solveAsync(t, ts, spec) }); syncs != 1 || !ack.Durable {
		t.Fatalf("asynchronous acknowledgement: %d fsyncs, durable=%v; want 1 and true", syncs, ack.Durable)
	}
	if _, syncs := cost(func() { job = getJob(t, ts, ack.ID, true) }); syncs != 1 || job.Status != StatusDone {
		t.Fatalf("answer reporting the end: %d fsyncs, status %s; want 1 and done", syncs, job.Status)
	}
	if records, syncs := cost(func() { getJob(t, ts, ack.ID, false) }); records != 0 || syncs != 0 {
		t.Fatalf("asking again: %d records, %d fsyncs; want none", records, syncs)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestPromiseLostToFault: the disk dies while a synchronous job runs, so
// the fsync its answer waits for fails and the journal loses the job's
// submit. The answer must not claim durability: reject mode refuses it
// with 503, serve mode answers durable:false. Nothing of the job reaches
// the journal, and after the disk heals the next job is durable again.
func TestPromiseLostToFault(t *testing.T) {
	for _, mode := range []string{DegradedReject, DegradedServe} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			ffs := iofault.NewFaultFS(nil, iofault.Plan{})
			metrics := trace.NewMetrics()
			srv := New(Config{JournalDir: dir, JournalFS: ffs, Workers: 1, DegradedMode: mode,
				RearmBackoff: time.Millisecond, Metrics: metrics})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			srv.execHook = func(spec JobSpec) {
				if spec.Seed == 2 {
					ffs.Break(iofault.ClassSync, syscall.EIO)
				}
			}

			resp := postSolveBody(t, ts, `{"kind":"chol","n":90,"seed":2,"procs":2}`, "")
			var job Job
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
					t.Fatal(err)
				}
			}
			resp.Body.Close()
			switch mode {
			case DegradedReject:
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("reject mode answered HTTP %d, want 503", resp.StatusCode)
				}
				if got := metrics.Get("rapidd.jobs.refused_degraded"); got != 1 {
					t.Errorf("refused_degraded %d, want 1", got)
				}
			case DegradedServe:
				if resp.StatusCode != http.StatusOK || job.Durable || job.Status != StatusDone {
					t.Fatalf("serve mode: HTTP %d, %s durable=%v; want 200, done, not durable", resp.StatusCode, job.Status, job.Durable)
				}
				if got := metrics.Get("rapidd.jobs.nondurable"); got != 1 {
					t.Errorf("nondurable %d, want 1", got)
				}
			}
			if j := getJob(t, ts, "j0001", false); j.Durable {
				t.Errorf("the job's record still claims durability: %+v", j)
			}

			ffs.Heal()
			for deadline := time.Now().Add(10 * time.Second); srv.healthState() != HealthDurable; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("journal never re-armed after the heal")
				}
			}
			if j := solveSync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 3, Procs: 2}); !j.Durable || j.Status != StatusDone {
				t.Fatalf("job after the re-arm: %s durable=%v", j.Status, j.Durable)
			}
			if err := srv.Drain(t.Context()); err != nil {
				t.Fatal(err)
			}
			if ops := journalOps(t, dir); ops["j0001"] != "" || ops["j0002"] != "SAX" {
				t.Fatalf("journal ops %v, want nothing for j0001 and SAX for j0002", ops)
			}
		})
	}
}
