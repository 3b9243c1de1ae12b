package rapidd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/rapid"
)

// hookFS is the real filesystem with a callback at every file write —
// the moment the journal appends a record.
type hookFS struct {
	iofault.OS
	onWrite atomic.Pointer[func()]
}

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := h.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	iofault.File
	fs *hookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	if fn := f.fs.onWrite.Load(); fn != nil {
		(*fn)()
	}
	return f.File.Write(p)
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// lifecycleView is everything an edge may touch, as seen from outside.
type lifecycleView struct {
	Record     Job
	Counters   map[string]int64
	Tenant     tenantStats
	Latencies  int64
	Records    int64
	DoneClosed bool
	Released   bool // ctx and cancel dropped
}

func viewOf(srv *Server, j *job) lifecycleView {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return lifecycleView{
		Record:     j.Job,
		Counters:   srv.metrics.Snapshot(),
		Tenant:     *srv.tenantStatLocked(j.Spec.Tenant),
		Latencies:  srv.latency.Count(),
		Records:    srv.jnl.Stats().Records,
		DoneClosed: isClosed(j.done),
		Released:   j.ctx == nil && j.cancel == nil,
	}
}

// counterDelta returns the counters that changed between two snapshots.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// TestLifecycleEdgeTable walks every (from, to) status pair. A legal edge
// applies with exactly the side effects transition documents — and in
// their order: the admit record lands while the job is not yet running,
// the completion record while done is still open, and no record is ever
// appended with Server.mu held. Every other pair is refused and leaves
// the record, the counters, the journal and the channel untouched.
func TestLifecycleEdgeTable(t *testing.T) {
	states := []JobStatus{StatusPending, StatusQueued, StatusRunning, StatusDone, StatusFailed}
	// route leads a fresh (pending) job to each state over legal edges.
	route := map[JobStatus][]JobStatus{
		StatusQueued:  {StatusQueued},
		StatusRunning: {StatusRunning},
		StatusDone:    {StatusRunning, StatusDone},
		StatusFailed:  {StatusFailed},
	}
	legal := map[[2]JobStatus]bool{}
	for from, tos := range edges {
		for _, to := range tos {
			legal[[2]JobStatus{from, to}] = true
		}
	}
	if len(legal) != 7 {
		t.Fatalf("lifecycle has %d edges, want 7", len(legal))
	}
	failure := fmt.Errorf("rapidd: too slow: %w", context.DeadlineExceeded)

	for _, from := range states {
		for _, to := range states {
			t.Run(string(from)+"→"+string(to), func(t *testing.T) {
				dir := t.TempDir()
				var fs hookFS
				srv, err := Open(Config{JournalDir: dir, Workers: 1, Metrics: trace.NewMetrics(),
					TenantWeights: map[string]float64{"acme": 1}, hooks: hooks{journalFS: &fs}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Drain(context.Background()) })
				j := srv.newJob(Job{ID: "jx", Seq: 1, Spec: JobSpec{Tenant: "acme"}, submittedAt: time.Now()}, false)
				srv.update(j, func(r *Job) { r.DemandUnits = 77 })
				for _, st := range route[from] {
					if err := srv.transition(j, st, nil); err != nil {
						t.Fatal(err)
					}
				}
				before := viewOf(srv, j)
				if before.Record.Status != from {
					t.Fatalf("route reached %s, want %s", before.Record.Status, from)
				}

				// What a reader could see at the moment of each append. (The
				// hook runs inside the journal, so it cannot ask it anything.)
				type seen struct {
					status     JobStatus
					doneClosed bool
				}
				var atWrite []seen
				lockFree := true
				hook := func() {
					if !srv.mu.TryLock() {
						lockFree = false
						return
					}
					atWrite = append(atWrite, seen{j.Status, isClosed(j.done)})
					srv.mu.Unlock()
				}
				fs.onWrite.Store(&hook)
				var cause error
				if to == StatusFailed {
					cause = failure
				}
				err = srv.transition(j, to, cause)
				fs.onWrite.Store(nil)
				after := viewOf(srv, j)
				if !lockFree {
					t.Error("journal append with Server.mu held")
				}

				if !legal[[2]JobStatus{from, to}] {
					if err == nil {
						t.Fatal("illegal edge was not refused")
					}
					if !reflect.DeepEqual(before, after) || len(atWrite) != 0 {
						t.Fatalf("refused edge left a trace:\nbefore %+v\nafter  %+v\nwrites %d", before, after, len(atWrite))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}

				// What the edge owes, and nothing else.
				want := before
				want.Record.Status = to
				want.Counters = maps.Clone(before.Counters)
				switch to {
				case StatusQueued:
					want.Counters["rapidd.jobs.queued"]++
				case StatusRunning:
					want.Records++
				case StatusDone:
					want.Counters["rapidd.jobs.completed"]++
					want.Tenant.completed++
				case StatusFailed:
					want.Record.Error = failure.Error()
					want.Counters["rapidd.jobs.failed"]++
					want.Counters["rapidd.jobs.deadline_expired"]++
					want.Tenant.failed++
					want.Tenant.expired++
				}
				if to == StatusDone || to == StatusFailed {
					want.Latencies++
					want.Records++
					want.DoneClosed, want.Released = true, true
				}
				if !reflect.DeepEqual(want, after) {
					t.Fatalf("edge effects:\nwant %+v\ngot  %+v\ncounters changed: %v", want, after, counterDelta(before.Counters, after.Counters))
				}

				if int64(len(atWrite)) != want.Records-before.Records {
					t.Fatalf("%d journal writes, want %d", len(atWrite), want.Records-before.Records)
				}
				for _, v := range atWrite {
					if to == StatusRunning && v.status != from {
						t.Errorf("admit record appended with status already %s", v.status)
					}
					if to != StatusRunning && (v.status != to || v.doneClosed) {
						t.Errorf("completion record appended at status %s, done closed %v", v.status, v.doneClosed)
					}
				}

				if err := srv.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				rep := replayJournal(t, dir)
				var last journal.Record
				if n := len(rep.Records); n > 0 {
					last = rep.Records[n-1]
				}
				switch to {
				case StatusRunning:
					if last.Op != journal.OpAdmit || last.ID != "jx" || last.Demand != 77 {
						t.Fatalf("admit record %+v", last)
					}
				case StatusDone, StatusFailed:
					if last.Op != journal.OpComplete || last.ID != "jx" || last.Status != string(to) || last.Error != after.Record.Error {
						t.Fatalf("completion record %+v", last)
					}
				}
			})
		}
	}
}

// TestLifecycleFailureCauses: the typed cause picks the failure's extra
// counter — deadline, cancellation, or neither — and the record keeps its
// message.
func TestLifecycleFailureCauses(t *testing.T) {
	for name, tc := range map[string]struct {
		cause   error
		counter string
	}{
		"deadline":  {fmt.Errorf("late: %w", context.DeadlineExceeded), "rapidd.jobs.deadline_expired"},
		"cancelled": {fmt.Errorf("gone: %w", context.Canceled), "rapidd.jobs.cancelled"},
		"other":     {errors.New("kernel exploded"), ""},
	} {
		metrics := trace.NewMetrics()
		srv := New(Config{Workers: 1, Metrics: metrics})
		j := srv.newJob(Job{ID: "jx", Spec: JobSpec{Tenant: "acme"}}, false)
		if err := srv.transition(j, StatusFailed, tc.cause); err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{"rapidd.jobs.failed": 1}
		if tc.counter != "" {
			want[tc.counter] = 1
		}
		if got := counterDelta(nil, metrics.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters %v, want %v", name, got, want)
		}
		if j.Error != tc.cause.Error() || srv.latency.Count() != 0 {
			t.Errorf("%s: error %q, %d latency samples (want %q and no sample without a submission time)", name, j.Error, srv.latency.Count(), tc.cause)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, Job) {
	t.Helper()
	return doJob(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id)
}

func doJob(t *testing.T, method, url string) (int, Job) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

// journalOps returns each job's journal records as a string of op
// letters: S submit, A admit, C cancel, X complete.
func journalOps(t *testing.T, dir string) map[string]string {
	t.Helper()
	rep := replayJournal(t, dir)
	letter := map[journal.Op]string{journal.OpSubmit: "S", journal.OpAdmit: "A", journal.OpCancel: "C", journal.OpComplete: "X"}
	ops := map[string]string{}
	for _, rec := range rep.Records {
		ops[rec.ID] += letter[rec.Op]
	}
	delete(ops, "") // marks carry no job ID
	return ops
}

// TestDeleteCancelsQueuedJob: DELETE /v1/jobs/{id} reaches Server.Cancel.
// A job queued behind a gated worker is deleted; it ends failed with a
// cancellation error without ever executing, its queue slot and admission
// units come back, and the journal holds submit, cancel, complete.
func TestDeleteCancelsQueuedJob(t *testing.T) {
	dir := t.TempDir()
	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{JournalDir: dir, Workers: -1, QueueDepth: 2, AvailMem: 1 << 40, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	j1 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 51, Procs: 2})
	g.wait(t)
	j2 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 52, Procs: 2})

	code, ack := deleteJob(t, ts, j2.ID)
	if code != http.StatusOK || ack.ID != j2.ID {
		t.Fatalf("DELETE: HTTP %d, job %q; want 200 and the job", code, ack.ID)
	}
	if code, _ := deleteJob(t, ts, "nope"); code != http.StatusNotFound {
		t.Errorf("DELETE of an unknown job: HTTP %d, want 404", code)
	}
	if code, _ := doJob(t, http.MethodPut, ts.URL+"/v1/jobs/"+j2.ID); code != http.StatusMethodNotAllowed {
		t.Errorf("PUT on a job: HTTP %d, want 405", code)
	}
	g.open()

	fin := getJob(t, ts, j2.ID, true)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, context.Canceled.Error()) {
		t.Fatalf("deleted job: %s (%q), want failed with a cancellation error", fin.Status, fin.Error)
	}
	if fin.Fingerprint != "" {
		t.Errorf("deleted job resolved plan %s, want none", fin.Fingerprint)
	}
	if got := metrics.Get("rapidd.jobs.cancelled"); got != 1 {
		t.Errorf("cancelled counter %d, want 1", got)
	}
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("first job: %s (%s)", j.Status, j.Error)
	}
	// A finished job is past cancelling: DELETE answers with it, unchanged.
	if code, again := deleteJob(t, ts, j2.ID); code != http.StatusOK || again.Status != StatusFailed {
		t.Errorf("DELETE of a finished job: HTTP %d status %s", code, again.Status)
	}
	if depth, _ := srv.queue.stats(); depth != 0 {
		t.Errorf("queue depth %d after the cancel, want 0", depth)
	}
	if _, inUse, _, queued := srv.queue.snapshot(); inUse != 0 || queued != 0 {
		t.Errorf("admission after the cancel: inUse=%d queued=%d", inUse, queued)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ops := journalOps(t, dir); ops[j2.ID] != "SCX" || ops[j1.ID] != "SAX" {
		t.Fatalf("journal ops %v, want %s=SCX %s=SAX", ops, j2.ID, j1.ID)
	}
}

// TestRunningJobOutlivesItsDeadline: a deadline bounds the wait before
// execution, not the execution. A job held at the exec gate — admitted
// and running — until its deadline_ms has passed still ends done, and no
// deadline expiry is counted for it.
func TestRunningJobOutlivesItsDeadline(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(func(s JobSpec) bool { return s.DeadlineMS > 0 })
	srv := New(Config{Workers: 1, Metrics: metrics, TenantWeights: map[string]float64{"acme": 1}, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	// Warm the plan cache, so the job is at the exec gate — past its last
	// deadline check — a few milliseconds after it is submitted.
	spec := JobSpec{Tenant: "acme", Kind: "chol", N: 90, Seed: 71, Procs: 2}
	if j := solveSync(t, ts, spec); j.Status != StatusDone {
		t.Fatalf("warm-up: %s (%s)", j.Status, j.Error)
	}
	spec.DeadlineMS = 150
	j := solveAsync(t, ts, spec)
	g.wait(t)
	srv.mu.Lock()
	expired := srv.jobs[j.ID].ctx.Done()
	srv.mu.Unlock()
	<-expired
	if st := getJob(t, ts, j.ID, false).Status; st != StatusRunning {
		t.Fatalf("job is %s at the gate past its deadline, want running", st)
	}
	g.open()
	if fin := getJob(t, ts, j.ID, true); fin.Status != StatusDone || fin.ExecMS <= 0 {
		t.Fatalf("job held past its deadline: %s (%q) exec_ms %v, want done", fin.Status, fin.Error, fin.ExecMS)
	}
	if got := metrics.Get("rapidd.jobs.deadline_expired"); got != 0 {
		t.Errorf("deadline_expired %d, want 0", got)
	}
	if got := srv.tenantStat("acme").expired; got != 0 {
		t.Errorf("tenant expired counter %d, want 0", got)
	}
}

// TestLifecycleOneCompletionPerJob drives every terminal path of the
// daemon against one journal — success, verifier rejection, panic,
// fault-retry exhaustion, deadline in the queue, cancel while waiting for
// memory, two identical jobs that each succeed and two that each fail, and
// the four replay fates: a re-queued job, which passes the Config-time
// hooks like live traffic, and the three that end a job without running
// it — and then reads the journal cold: every job's records match submit
// cancel? admit? cancel? complete with exactly one completion, its done
// channel is closed, and no booked unit or queue slot is left.
func TestLifecycleOneCompletionPerJob(t *testing.T) {
	size := JobSpec{Kind: "chol", N: 90, Procs: 2}
	withSeed := func(seed uint64) JobSpec { s := size; s.Seed = seed; return s }
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, withSeed(10))
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	dir := t.TempDir()
	raw := []byte(`{"kind":"chol","n":90,"seed":1,"procs":2}`)
	seedJournal(t, dir, []journal.Record{
		{Op: journal.OpSubmit, Seq: 1, ID: "j0001", Tenant: "default", Priority: "normal", Spec: []byte(`{"kind":"chol","n":90,"seed":5,"procs":2}`)}, // queued: re-run
		{Op: journal.OpSubmit, Seq: 2, ID: "j0002", Tenant: "default", Priority: "normal", Spec: raw},
		{Op: journal.OpAdmit, Seq: 2, ID: "j0002"}, // in flight: failed
		{Op: journal.OpSubmit, Seq: 3, ID: "j0003", Tenant: "default", Priority: "normal", Spec: raw},
		{Op: journal.OpCancel, Seq: 3, ID: "j0003"},                                                                  // cancelled: failed
		{Op: journal.OpSubmit, Seq: 4, ID: "j0004", Tenant: "default", Priority: "normal", Spec: []byte(`{"n":-5}`)}, // unreadable: failed
	})

	// One gate per seed whose job the test holds at the exec hook; seed 4
	// loses every transmission and seeds 9 and 99 panic.
	gates := map[uint64]*gate{5: newGate(nil), 7: newGate(nil), 9: newGate(nil), 10: newGate(nil)}
	exec := func(spec JobSpec, opt *rapid.ExecOptions) {
		if g := gates[spec.Seed]; g != nil {
			g.exec(spec, opt)
		}
		switch spec.Seed {
		case 4:
			opt.Faults = rapid.Faults{Seed: 1, DropFrac: 1}
		case 9, 99:
			panic("injected kernel fault")
		}
	}
	var tamper atomic.Bool
	plan := func(p *rapid.Plan) {
		if tamper.Load() {
			p.Mem.Procs[0].Peak += 1 << 20
		}
	}
	metrics := trace.NewMetrics()
	srv, err := Open(Config{
		JournalDir: dir, Workers: 2, QueueDepth: 8,
		AvailMem:   ref.DemandUnits * 3 / 2,
		JobTimeout: 10 * time.Second, Metrics: metrics,
		hooks: hooks{plan: plan, exec: exec},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		for _, g := range gates {
			g.open()
		}
	}()
	want := map[string]JobStatus{"j0002": StatusFailed, "j0003": StatusFailed, "j0004": StatusFailed}
	expect := func(j Job, st JobStatus, inError string) {
		t.Helper()
		if j.Status != st || !strings.Contains(j.Error, inError) {
			t.Fatalf("job %s: %s (%q), want %s with %q", j.ID, j.Status, j.Error, st, inError)
		}
		want[j.ID] = st
	}

	// The re-queued job runs through the hooks Open was given: held at
	// the gate it is running, marked recovered, and its demand is booked.
	gates[5].wait(t)
	rec := getJob(t, ts, "j0001", false)
	if rec.Status != StatusRunning || !rec.Recovered {
		t.Fatalf("recovered job at the gate: %s recovered=%v, want running and recovered", rec.Status, rec.Recovered)
	}
	if _, inUse, _, _ := srv.queue.snapshot(); rec.DemandUnits <= 0 || inUse != rec.DemandUnits {
		t.Fatalf("recovered job at the gate: %d units booked, its demand is %d", inUse, rec.DemandUnits)
	}
	gates[5].open()
	expect(getJob(t, ts, "j0001", true), StatusDone, "")
	if _, inUse, _, _ := srv.queue.snapshot(); inUse != 0 {
		t.Fatalf("recovered job finished with %d units still booked", inUse)
	}

	expect(solveSync(t, ts, withSeed(2)), StatusDone, "")
	tamper.Store(true)
	expect(solveSync(t, ts, withSeed(3)), StatusFailed, "static verifier")
	tamper.Store(false)
	expect(solveSync(t, ts, withSeed(99)), StatusFailed, "panicked")
	expect(solveSync(t, ts, withSeed(4)), StatusFailed, "retry budget")

	// Two identical jobs, each executing itself: the first holds its
	// booking at the gate, the second waits in the queue for memory behind
	// it (the budget fits one) — and a job whose deadline passes while it
	// waits in the queue too.
	okA := solveAsync(t, ts, withSeed(7))
	gates[7].wait(t)
	okB := solveAsync(t, ts, withSeed(7))
	waitStatus(t, ts, okB.ID, StatusQueued)
	hurried := withSeed(8)
	hurried.DeadlineMS = 30
	late := solveAsync(t, ts, hurried)
	time.Sleep(40 * time.Millisecond) // the deadline is wall-clock; waiting longer only makes it surer
	gates[7].open()
	expect(getJob(t, ts, okA.ID, true), StatusDone, "")
	expect(getJob(t, ts, okB.ID, true), StatusDone, "")
	expect(getJob(t, ts, late.ID, true), StatusFailed, "expired before execution")

	// Two identical jobs that each fail.
	badA := solveAsync(t, ts, withSeed(9))
	gates[9].wait(t)
	badB := solveAsync(t, ts, withSeed(9))
	waitStatus(t, ts, badB.ID, StatusQueued)
	gates[9].open()
	expect(getJob(t, ts, badA.ID, true), StatusFailed, "panicked")
	expect(getJob(t, ts, badB.ID, true), StatusFailed, "panicked")

	// Cancel while waiting for memory: the holder books two thirds of the
	// budget, the same structure (told apart by verify) waits in the queue
	// behind it and is cancelled there.
	holder := solveAsync(t, ts, withSeed(10))
	gates[10].wait(t)
	parkedSpec := withSeed(10)
	parkedSpec.Verify = true
	parked := solveAsync(t, ts, parkedSpec)
	waitStatus(t, ts, parked.ID, StatusQueued)
	if !srv.Cancel(parked.ID) {
		t.Fatal("Cancel returned false for a job waiting in the queue")
	}
	expect(getJob(t, ts, parked.ID, true), StatusFailed, context.Canceled.Error())
	gates[10].open()
	expect(getJob(t, ts, holder.ID, true), StatusDone, "")

	for _, id := range []string{"j0002", "j0003", "j0004"} {
		expect(getJob(t, ts, id, true), StatusFailed, "")
	}
	srv.mu.Lock()
	if len(srv.jobs) != len(want) {
		t.Errorf("%d jobs known, %d driven", len(srv.jobs), len(want))
	}
	for id, j := range srv.jobs {
		if !isClosed(j.done) || j.ctx != nil || j.cancel != nil {
			t.Errorf("job %s: done closed %v, context released %v", id, isClosed(j.done), j.ctx == nil && j.cancel == nil)
		}
	}
	srv.mu.Unlock()
	if _, inUse, _, waiting := srv.queue.snapshot(); inUse != 0 || waiting != 0 {
		t.Errorf("ledger: inUse=%d waiting=%d, want 0, 0", inUse, waiting)
	}
	if depth, _ := srv.queue.stats(); depth != 0 {
		t.Errorf("queue depth %d, want 0", depth)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	shape := regexp.MustCompile(`^SC?A?C?X$`)
	ops := journalOps(t, dir)
	for id := range want {
		if !shape.MatchString(ops[id]) {
			t.Errorf("job %s (%s): journal ops %q, want submit cancel? admit? cancel? complete", id, want[id], ops[id])
		}
	}
	if len(ops) != len(want) {
		t.Errorf("journal names %d jobs, %d driven: %v", len(ops), len(want), ops)
	}
	for id, seq := range map[string]string{
		"j0001": "SAX", "j0002": "SAX", "j0003": "SCX", "j0004": "SX",
		late.ID: "SX", okA.ID: "SAX", okB.ID: "SAX", badA.ID: "SAX", badB.ID: "SAX", parked.ID: "SCX",
	} {
		if ops[id] != seq {
			t.Errorf("job %s: journal ops %q, want %q", id, ops[id], seq)
		}
	}
}
