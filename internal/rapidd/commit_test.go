package rapidd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/trace"
	"repro/rapid"
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
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPromiseLostToFault: the disk dies while a synchronous job runs, so
// the fsync its answer waits for fails and the journal loses the job's
// submit. The answer must not claim durability: it is refused with 503.
// Nothing of the job reaches the journal, and after the disk heals the
// next job is durable again.
func TestPromiseLostToFault(t *testing.T) {
	// reject is the one degraded-mode policy left.
	t.Run("reject", func(t *testing.T) {
		dir := t.TempDir()
		ffs := iofault.NewFaultFS(nil, iofault.Plan{})
		metrics := trace.NewMetrics()
		breakDisk := func(spec JobSpec, _ *rapid.ExecOptions) {
			if spec.Seed == 2 {
				ffs.Break(iofault.ClassSync, syscall.EIO)
			}
		}
		srv := New(Config{JournalDir: dir, Workers: 1, Metrics: metrics,
			hooks: hooks{exec: breakDisk, journalFS: ffs, rearmBackoff: time.Millisecond}})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp := postSolveBody(t, ts, `{"kind":"chol","n":90,"seed":2,"procs":2}`, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("answered HTTP %d, want 503", resp.StatusCode)
		}
		if got := metrics.Get("rapidd.jobs.refused_degraded"); got != 1 {
			t.Errorf("refused_degraded %d, want 1", got)
		}
		if j := getJob(t, ts, "j0001", false); j.Durable {
			t.Errorf("the job's record still claims durability: %+v", j)
		}

		ffs.Heal()
		for deadline := time.Now().Add(10 * time.Second); srv.degraded(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("journal never re-armed after the heal")
			}
		}
		if j := solveSync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 3, Procs: 2}); !j.Durable || j.Status != StatusDone {
			t.Fatalf("job after the re-arm: %s durable=%v", j.Status, j.Durable)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ops := journalOps(t, dir); ops["j0001"] != "" || ops["j0002"] != "SAX" {
			t.Fatalf("journal ops %v, want nothing for j0001 and SAX for j0002", ops)
		}
	})
}
