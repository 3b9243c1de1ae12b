package rapidd

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/trace"
	"repro/rapid"
)

// seedJournal writes records the way a previous daemon would have, then
// closes the journal so a Server can replay it.
func seedJournal(t *testing.T, dir string, recs []journal.Record) {
	t.Helper()
	jnl, rep, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 {
		t.Fatalf("fresh journal dir has %d records", len(rep.Records))
	}
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayJournal opens the journal in dir and closes it again, returning
// what a restarted daemon would replay.
func replayJournal(t *testing.T, dir string) *journal.Replay {
	t.Helper()
	jnl, rep, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRestartRecoversJournaledJobs drives every replay fate from a
// hand-built journal: a queued job is re-run, an executing job and a
// cancelled job fail explicitly, a terminal job is not resurrected, an
// unreadable spec fails loudly, a spec journaled with the hold and fault
// fields the wire no longer has runs as the same spec without them — and
// new IDs continue past the journal's high-water mark, so IDs never
// collide across restarts.
func TestRestartRecoversJournaledJobs(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"tenant":"acme","kind":"chol","n":90,"seed":7,"procs":2}`)
	seedJournal(t, dir, []journal.Record{
		{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: spec},
		{Op: journal.OpSubmit, Seq: 2, ID: "j0002", Tenant: "acme", Priority: "normal", Spec: []byte(`{"tenant":"acme","kind":"chol","n":90,"seed":8,"procs":2}`)},
		{Op: journal.OpAdmit, Seq: 2, ID: "j0002"},
		{Op: journal.OpSubmit, Seq: 3, ID: "j0003", Tenant: "acme", Priority: "normal", Spec: spec},
		{Op: journal.OpCancel, Seq: 3, ID: "j0003"},
		{Op: journal.OpSubmit, Seq: 4, ID: "j0004", Tenant: "acme", Priority: "normal", Spec: spec},
		{Op: journal.OpComplete, Seq: 4, ID: "j0004", Status: string(StatusDone)},
		{Op: journal.OpSubmit, Seq: 5, ID: "j0005", Tenant: "acme", Priority: "normal", Spec: []byte(`{"n":-5}`)},
		{Op: journal.OpSubmit, Seq: 6, ID: "j0006", Tenant: "acme", Priority: "normal",
			Spec: []byte(`{"tenant":"acme","kind":"chol","n":90,"seed":10,"procs":2,"hold_ms":60000,"drop_frac":1,"dup_frac":0.5,"fault_seed":3}`)},
	})

	metrics := trace.NewMetrics()
	srv, err := Open(Config{JournalDir: dir, Workers: 2, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// j0001 was queued: this daemon executes it.
	j1 := getJob(t, ts, "j0001", true)
	if j1.Status != StatusDone || !j1.Recovered {
		t.Fatalf("queued job after restart: %s recovered=%v (%s)", j1.Status, j1.Recovered, j1.Error)
	}
	if j1.Spec.Tenant != "acme" || j1.Seq != 1 {
		t.Fatalf("recovered job lost identity: tenant=%q seq=%d", j1.Spec.Tenant, j1.Seq)
	}
	// j0002 was executing when the daemon died: explicit failure.
	j2 := getJob(t, ts, "j0002", true)
	if j2.Status != StatusFailed || !strings.Contains(j2.Error, "restarted while the job was executing") {
		t.Fatalf("in-flight job after restart: %s (%q)", j2.Status, j2.Error)
	}
	// j0003 was cancelled: explicit failure, not resurrection.
	j3 := getJob(t, ts, "j0003", true)
	if j3.Status != StatusFailed || !strings.Contains(j3.Error, "cancelled") {
		t.Fatalf("cancelled job after restart: %s (%q)", j3.Status, j3.Error)
	}
	// j0004 finished before the restart: the old daemon answered, this one
	// does not resurrect it.
	resp, err := http.Get(ts.URL + "/v1/jobs/j0004")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("terminal job resurrected: HTTP %d", resp.StatusCode)
	}
	// j0005's spec does not parse: explicit failure.
	j5 := getJob(t, ts, "j0005", true)
	if j5.Status != StatusFailed {
		t.Fatalf("unreadable-spec job: %s", j5.Status)
	}

	// j0006 was journaled with a 60 s hold and total message loss: it
	// replays as the spec without them, runs at once and succeeds.
	j6 := getJob(t, ts, "j0006", true)
	if j6.Status != StatusDone || !j6.Recovered || j6.Retransmits != 0 {
		t.Fatalf("job journaled with retired knobs: %s recovered=%v retransmits=%d (%s)", j6.Status, j6.Recovered, j6.Retransmits, j6.Error)
	}
	if want := normalized(t, JobSpec{Tenant: "acme", Kind: "chol", N: 90, Seed: 10, Procs: 2}); j6.Spec != want {
		t.Fatalf("job journaled with retired knobs replayed as %+v, want %+v", j6.Spec, want)
	}

	if got := metrics.Get("rapidd.journal.recovered"); got != 2 {
		t.Errorf("recovered counter %d, want 2", got)
	}
	if got := metrics.Get("rapidd.journal.failed_inflight"); got != 1 {
		t.Errorf("failed_inflight counter %d, want 1", got)
	}

	// The ID counter resumed past the high-water mark.
	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 9, Procs: 2})
	if j.ID != "j0007" || j.Seq != 7 {
		t.Fatalf("post-restart job %s seq=%d, want j0007 seq=7", j.ID, j.Seq)
	}
}

// TestTornTailRestartMetricsParse: a daemon restarted over a torn journal
// tail reports the discarded bytes once, as the journal's gauge, and its
// /metrics still parses.
func TestTornTailRestartMetricsParse(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir, []journal.Record{
		{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: []byte(`{}`)},
		{Op: journal.OpComplete, ID: "j0001", Status: string(StatusDone)},
	})
	seg, err := os.OpenFile(filepath.Join(dir, "wal-00000001.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Config{JournalDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if got := readMetrics(t, ts.URL)["rapidd_journal_truncated_bytes"]; got != 6 {
		t.Fatalf("rapidd_journal_truncated_bytes = %v, want 6", got)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCleanRestartReplaysEmpty: a drained daemon leaves a journal whose
// replay recovers nothing, and the next incarnation keeps allocating
// fresh IDs.
func TestCleanRestartReplaysEmpty(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{JournalDir: dir, Workers: 2})
	ts1 := httptest.NewServer(srv1)
	var firstIDs []string
	for i := 0; i < 3; i++ {
		j := solveSync(t, ts1, JobSpec{Kind: "chol", N: 90, Seed: uint64(100 + i), Procs: 2})
		if j.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, j.Status, j.Error)
		}
		firstIDs = append(firstIDs, j.ID)
	}
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	metrics := trace.NewMetrics()
	srv2, err := Open(Config{JournalDir: dir, Workers: 2, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := metrics.Get("rapidd.journal.recovered") + metrics.Get("rapidd.journal.failed_inflight"); got != 0 {
		t.Fatalf("clean restart recovered %d jobs, want 0", got)
	}
	j := solveSync(t, ts2, JobSpec{Kind: "chol", N: 90, Seed: 200, Procs: 2})
	if j.Status != StatusDone {
		t.Fatalf("post-restart job: %s (%s)", j.Status, j.Error)
	}
	for _, old := range firstIDs {
		if j.ID == old {
			t.Fatalf("ID %s collided across restarts", j.ID)
		}
	}
}

// TestJournalWriteFailureRejectsSubmit: when the submit record cannot be
// made durable the request is a 500 and leaves nothing behind — no job
// record, no queue slot, no tenant counter.
func TestJournalWriteFailureRejectsSubmit(t *testing.T) {
	dir := t.TempDir()
	metrics := trace.NewMetrics()
	srv := New(Config{JournalDir: dir, Workers: 1, QueueDepth: 4, Metrics: metrics, TenantWeights: map[string]float64{"acme": 1}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fail the journal underneath the server.
	srv.jnl.Close()
	resp := postSolveBody(t, ts, `{"tenant":"acme","kind":"chol","n":90,"seed":1,"procs":2}`, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with a dead journal: HTTP %d, want 500", resp.StatusCode)
	}
	if got := metrics.Get("rapidd.journal.errors"); got != 1 {
		t.Errorf("journal.errors %d, want 1", got)
	}
	if got := metrics.Get("rapidd.jobs.submitted"); got != 0 {
		t.Errorf("submitted counter %d, want 0", got)
	}
	if jobs := listJobs(t, ts); len(jobs) != 0 {
		t.Fatalf("failed submit left %d job records", len(jobs))
	}
	if depth, _ := srv.queue.stats(); depth != 0 {
		t.Fatalf("failed submit left queue depth %d", depth)
	}
	if srv.tenantStat("acme").submitted != 0 {
		t.Fatalf("failed submit left tenant counter %d", srv.tenantStat("acme").submitted)
	}
}

// crashHelperEnv gates the subprocess half of the SIGKILL test.
const crashHelperEnv = "RAPIDD_CRASH_HELPER_DIR"

// TestCrashHelperProcess is not a test of its own: re-executed as a child
// process by TestCrashRestartRecovery, it runs a journaled daemon,
// reports readiness, then waits to be SIGKILLed mid-load.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashRestartRecovery")
	}
	// Real fsync: the point is that acknowledged submits survive SIGKILL.
	// Every job that reaches the executor waits there for the kill, so the
	// crash finds two jobs executing and the rest queued.
	srv := New(Config{JournalDir: dir, Workers: 2, QueueDepth: 32,
		hooks: hooks{exec: func(JobSpec, *rapid.ExecOptions) { select {} }}})
	ts := httptest.NewServer(srv)
	for i := 0; i < 12; i++ {
		spec := fmt.Sprintf(`{"tenant":"t%d","kind":"chol","n":90,"seed":%d,"procs":2}`, i%3, 300+i)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(spec))
		if err != nil {
			fmt.Println("SUBMIT-ERROR", err)
			os.Exit(1)
		}
		resp.Body.Close()
	}
	fmt.Println("SUBMITTED")
	os.Stdout.Sync()
	time.Sleep(time.Minute) // the parent SIGKILLs us here
}

// TestCrashRestartRecovery is the end-to-end durability proof: a real
// daemon process is SIGKILLed with jobs queued and executing, then a new
// daemon replays the same journal. Every job the dead daemon had
// acknowledged must reach a terminal state — re-run or explicitly failed,
// never silently dropped — and the admission ledger must drain to zero.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "SUBMITTED") {
				ready <- true
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper exited before submitting")
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("helper never reported SUBMITTED")
	}
	// SIGKILL: no deferred cleanup, no journal close — a real crash.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// What did the dead daemon acknowledge? Read the journal cold.
	rep := replayJournal(t, dir)
	submitted := make(map[string]bool)
	terminal := make(map[string]bool)
	for _, rec := range rep.Records {
		switch rec.Op {
		case journal.OpSubmit:
			submitted[rec.ID] = true
		case journal.OpComplete:
			terminal[rec.ID] = true
		}
	}
	if len(submitted) == 0 {
		t.Fatal("journal lost every acknowledged submit")
	}
	live := 0
	for id := range submitted {
		if !terminal[id] {
			live++
		}
	}
	if live == 0 {
		t.Fatal("every job completed before the kill; the crash tested nothing")
	}

	srv, err := Open(Config{JournalDir: dir, Workers: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for id := range submitted {
		if terminal[id] {
			continue // the dead daemon answered; not resurrected
		}
		j := getJob(t, ts, id, true)
		if j.Status != StatusDone && j.Status != StatusFailed {
			t.Fatalf("job %s after crash restart: %s", id, j.Status)
		}
		if !j.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
	}
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("budget leaked across the crash: inUse=%d queued=%d", inUse, queued)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A clean drain leaves no live jobs for the next incarnation.
	rep2 := replayJournal(t, dir)
	liveAfter := make(map[string]bool)
	for _, rec := range rep2.Records {
		switch rec.Op {
		case journal.OpSubmit:
			liveAfter[rec.ID] = true
		case journal.OpComplete:
			delete(liveAfter, rec.ID)
		}
	}
	if len(liveAfter) != 0 {
		t.Fatalf("jobs still live after recovery + drain: %v", liveAfter)
	}
}
