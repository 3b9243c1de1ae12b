package rapidd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/rapid"
)

// TestAdmissionFIFO exercises the controller deterministically: a job that
// fits is admitted at once, the next overflowing job queues (with the
// onQueue callback fired), later jobs wait behind it in strict FIFO order,
// and releases admit from the head.
func TestAdmissionFIFO(t *testing.T) {
	a := newAdmission(100, nil, 0)
	if err := a.acquireCtx(context.Background(), "t", 60, func() { t.Error("first job must not queue") }); err != nil {
		t.Fatal(err)
	}

	queued2 := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		if err := a.acquireCtx(context.Background(), "t", 60, func() { close(queued2) }); err != nil {
			t.Error(err)
		}
		close(done2)
	}()
	<-queued2 // second job is parked, not rejected

	// Third job would fit (60+10 <= 100) but must wait behind the head.
	done3 := make(chan struct{})
	go func() {
		if err := a.acquireCtx(context.Background(), "t", 10, nil); err != nil {
			t.Error(err)
		}
		close(done3)
	}()
	select {
	case <-done3:
		t.Fatal("FIFO violated: small job jumped the queue")
	case <-time.After(50 * time.Millisecond):
	}

	a.release("t", 60)
	<-done2
	<-done3
	_, inUse, peak, queued := a.snapshot()
	if inUse != 70 || queued != 0 {
		t.Fatalf("inUse=%d queued=%d, want 70, 0", inUse, queued)
	}
	if peak != 70 {
		t.Fatalf("peakInUse=%d, want 70", peak)
	}
	a.release("t", 60)
	a.release("t", 10)
	if _, inUse, _, _ := a.snapshot(); inUse != 0 {
		t.Fatalf("inUse=%d after all releases", inUse)
	}
}

func TestAdmissionOversizedIsCallerError(t *testing.T) {
	a := newAdmission(100, nil, 0)
	if err := a.acquireCtx(context.Background(), "t", 101, nil); err == nil {
		t.Fatal("demand above AVAIL_MEM must error (caller should have replanned)")
	}
	if err := a.acquireCtx(context.Background(), "t", -1, nil); err == nil {
		t.Fatal("negative demand must error")
	}
	// Unlimited controller admits anything.
	u := newAdmission(0, nil, 0)
	if err := u.acquireCtx(context.Background(), "t", 1<<40, nil); err != nil {
		t.Fatal(err)
	}
}

// New is Open for configurations that cannot fail (no journal, or a fresh
// test directory): the package exports one constructor, and tests that do
// not care about its error use this.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// gate holds jobs at the exec hook — admitted, running, their memory
// booked — until the test opens it: how a test keeps a job in flight long
// enough to observe what it does to the rest of the daemon.
type gate struct {
	holds   func(JobSpec) bool // which jobs wait; nil: every job
	arrived chan JobSpec       // hands each held job to wait
	opened  chan struct{}
	once    sync.Once
}

func newGate(holds func(JobSpec) bool) *gate {
	return &gate{holds: holds, arrived: make(chan JobSpec), opened: make(chan struct{})}
}

// exec is the gate as a Config exec hook. A held job waits until the test
// has seen it and the gate is open, or only for the gate if it opens
// first.
func (g *gate) exec(spec JobSpec, _ *rapid.ExecOptions) {
	if g.holds != nil && !g.holds(spec) {
		return
	}
	select {
	case g.arrived <- spec:
	case <-g.opened:
		return
	}
	<-g.opened
}

// wait returns the next job to reach the gate.
func (g *gate) wait(t testing.TB) JobSpec {
	t.Helper()
	select {
	case spec := <-g.arrived:
		return spec
	case <-time.After(10 * time.Second):
		t.Fatal("no job reached the exec gate")
		return JobSpec{}
	}
}

// open lets every held job, and every later one, through. Idempotent, so
// a test may also defer it for its failure paths.
func (g *gate) open() { g.once.Do(func() { close(g.opened) }) }

// seeds matches the specs with one of the given seeds.
func seeds(want ...uint64) func(JobSpec) bool {
	return func(spec JobSpec) bool { return slices.Contains(want, spec.Seed) }
}

func solveSync(t *testing.T, ts *httptest.Server, spec JobSpec) Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func solveAsync(t *testing.T, ts *httptest.Server, spec JobSpec) Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func getJob(t *testing.T, ts *httptest.Server, id string, wait bool) Job {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestServerCacheHit is the first acceptance scenario: two sequential
// solves of the same structure; the second must be served from the plan
// cache (no inspection).
func TestServerCacheHit(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{CacheDir: t.TempDir(), Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3, Verify: true}
	j1 := solveSync(t, ts, spec)
	if j1.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j1.Status, j1.Error)
	}
	if j1.PlanSource != "compiled" {
		t.Fatalf("job 1 plan source %q, want compiled", j1.PlanSource)
	}
	if j1.Residual > 1e-8 {
		t.Fatalf("job 1 residual %g", j1.Residual)
	}

	j2 := solveSync(t, ts, spec)
	if j2.Status != StatusDone {
		t.Fatalf("job 2: %s (%s)", j2.Status, j2.Error)
	}
	if j2.PlanSource != "memory" {
		t.Fatalf("job 2 plan source %q, want memory (cache hit)", j2.PlanSource)
	}
	if j2.Fingerprint == "" || j2.Fingerprint != j1.Fingerprint {
		t.Fatalf("fingerprints %q vs %q, want equal and non-empty", j1.Fingerprint, j2.Fingerprint)
	}
	if metrics.Get("plancache.hit.mem") == 0 {
		t.Errorf("no memory hit recorded: %v", metrics.Snapshot())
	}

	// A different structure misses.
	j3 := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 4, Procs: 3})
	if j3.PlanSource != "compiled" || j3.Fingerprint == j1.Fingerprint {
		t.Fatalf("job 3 source %q fingerprint %q: different seed must recompile", j3.PlanSource, j3.Fingerprint)
	}
}

// TestServerLUJob runs the other factorization kind end to end.
func TestServerLUJob(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	j := solveSync(t, ts, JobSpec{Kind: "lu", N: 80, Seed: 2, Procs: 3, Heuristic: "dtsmerge", Verify: true})
	if j.Status != StatusDone {
		t.Fatalf("lu job: %s (%s)", j.Status, j.Error)
	}
	if j.Residual > 1e-6 {
		t.Fatalf("lu residual %g", j.Residual)
	}
}

// TestServerQueuesOverBudgetJob is the second acceptance scenario: while a
// running job holds most of AVAIL_MEM, an identical job queues (visible
// status) and then completes — it is never rejected.
func TestServerQueuesOverBudgetJob(t *testing.T) {
	// Learn the job's footprint on an unconstrained server first.
	spec := JobSpec{Kind: "chol", N: 100, Seed: 5, Procs: 3}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	// Budget fits one copy of the job but not two. Job 1 (verify on, so
	// the gate holds it and not job 2) holds its booking at the gate until
	// job 2 has queued behind it.
	metrics := trace.NewMetrics()
	g := newGate(func(s JobSpec) bool { return s.Verify })
	srv := New(Config{AvailMem: ref.DemandUnits * 3 / 2, Metrics: metrics, hooks: hooks{exec: g.exec}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	hold := spec
	hold.Verify = true
	j1 := solveAsync(t, ts, hold)
	g.wait(t)
	j2 := solveAsync(t, ts, spec)
	waitStatus(t, ts, j2.ID, StatusQueued)
	g.open()
	if j2 = getJob(t, ts, j2.ID, true); j2.Status != StatusDone {
		t.Fatalf("job 2 must complete, got %s (%s)", j2.Status, j2.Error)
	}
	if metrics.Get("rapidd.jobs.queued") == 0 {
		t.Error("job 2 should have passed through the queued state")
	}
	if j2.Replanned {
		t.Error("job 2 fits AVAIL_MEM on its own; it must wait, not shrink")
	}
	j1Final := getJob(t, ts, j1.ID, true)
	if j1Final.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", j1Final.Status, j1Final.Error)
	}
	_, inUse, peak, queued := srv.adm.snapshot()
	if inUse != 0 || queued != 0 {
		t.Fatalf("admission not drained: inUse=%d queued=%d", inUse, queued)
	}
	if peak > srv.cfg.AvailMem {
		t.Fatalf("admitted peak %d exceeded AVAIL_MEM %d", peak, srv.cfg.AvailMem)
	}
}

// TestServerReplansOversizedJob: a job whose unconstrained plan exceeds the
// whole machine budget is recompiled under a fitting per-processor
// capacity and still completes — not rejected, not OOM-planned.
func TestServerReplansOversizedJob(t *testing.T) {
	spec := JobSpec{Kind: "chol", N: 100, Seed: 5, Procs: 3, Verify: true}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone {
		t.Fatalf("probe job: %s (%s)", ref.Status, ref.Error)
	}

	metrics := trace.NewMetrics()
	srv := New(Config{AvailMem: ref.DemandUnits * 3 / 4, Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, spec)
	if j.Status != StatusDone {
		t.Fatalf("oversized job must be replanned and complete, got %s (%s)", j.Status, j.Error)
	}
	if !j.Replanned {
		t.Fatal("job should report it was replanned under the budget")
	}
	if j.DemandUnits > srv.cfg.AvailMem {
		t.Fatalf("replanned demand %d still exceeds AVAIL_MEM %d", j.DemandUnits, srv.cfg.AvailMem)
	}
	if j.Residual > 1e-8 {
		t.Fatalf("replanned job residual %g", j.Residual)
	}
	if metrics.Get("rapidd.jobs.replanned") == 0 {
		t.Error("replanned counter not bumped")
	}
}

func TestServerValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, body := range []string{
		`{"kind":"qr"}`,
		`{"n":4}`,
		`{"procs":-1}`,
		`{"heuristic":"fifo"}`,
		`{"mem_percent":200}`,
		`{"kind":"chol","n":4000,"procs":4}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: HTTP %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestServerStatsAndJobList(t *testing.T) {
	srv := New(Config{CacheDir: t.TempDir(), AvailMem: 1 << 40})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	spec := JobSpec{Kind: "chol", N: 90, Seed: 9, Procs: 2}
	solveSync(t, ts, spec)
	solveSync(t, ts, spec)

	stats := readMetrics(t, ts.URL)
	if stats["rapidd_jobs_completed"] != 2 {
		t.Errorf("completed=%v, want 2 (metrics %v)", stats["rapidd_jobs_completed"], stats)
	}
	if stats["rapidd_plancache_hit_mem"] != 1 {
		t.Errorf("hit.mem=%v, want 1", stats["rapidd_plancache_hit_mem"])
	}
	if stats["rapidd_avail_mem_units"] != 1<<40 || stats["rapidd_mem_in_use_units"] != 0 || stats["rapidd_mem_peak_units"] <= 0 {
		t.Errorf("admission stats: avail %v in use %v peak %v", stats["rapidd_avail_mem_units"], stats["rapidd_mem_in_use_units"], stats["rapidd_mem_peak_units"])
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(jobs))
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("j%04d", i+1); j.ID != want {
			t.Errorf("job %d ID %q, want %q", i, j.ID, want)
		}
	}
}

// TestServerStateOccupancyMetrics checks that a completed job carries the
// executor's per-state occupancy and that the machine-wide counters appear
// in /metrics, one per protocol state.
func TestServerStateOccupancyMetrics(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{CacheDir: t.TempDir(), Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 7, Procs: 3})
	if j.Status != StatusDone {
		t.Fatalf("job: %s (%s)", j.Status, j.Error)
	}
	states := []string{"REC", "EXE", "SND", "MAP", "END"}
	if len(j.StateUS) != len(states) {
		t.Fatalf("job StateUS has %d entries, want %d: %v", len(j.StateUS), len(states), j.StateUS)
	}
	var total int64
	for _, s := range states {
		us, ok := j.StateUS[s]
		if !ok {
			t.Errorf("job StateUS missing state %q: %v", s, j.StateUS)
		}
		total += us
	}
	if total <= 0 {
		t.Errorf("job spent no accounted time in any state: %v", j.StateUS)
	}

	stats := readMetrics(t, ts.URL)
	for _, s := range []string{"rec", "exe", "snd", "map", "end"} {
		if _, ok := stats["rapidd_state_"+s+"_us"]; !ok {
			t.Errorf("metrics missing rapidd_state_%s_us: %v", s, stats)
		}
	}
	if stats["rapidd_state_exe_us"] != float64(j.StateUS["EXE"]) {
		t.Errorf("metrics exe_us %v != job EXE %d", stats["rapidd_state_exe_us"], j.StateUS["EXE"])
	}
}

// TestServerFaultInjectedJobRetransmits runs a job under injected message
// loss and duplication: the reliability layer must absorb the faults (the
// residual is still exact), and the retransmit activity must be visible on
// the job record and in the rapidd.reliability.* counters.
func TestServerFaultInjectedJobRetransmits(t *testing.T) {
	metrics := trace.NewMetrics()
	lossy := func(spec JobSpec, opt *rapid.ExecOptions) {
		if spec.Verify {
			opt.Faults = rapid.Faults{Seed: 2, DropFrac: 0.25, DupFrac: 0.10}
		}
	}
	srv := New(Config{Metrics: metrics, hooks: hooks{exec: lossy}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3, Verify: true})
	if j.Status != StatusDone {
		t.Fatalf("faulty job: %s (%s)", j.Status, j.Error)
	}
	if j.Residual > 1e-8 {
		t.Fatalf("residual %g under faults, want exact factorization", j.Residual)
	}
	if j.Retransmits == 0 {
		t.Error("25%% loss injected but job reports zero retransmits")
	}
	if metrics.Get("rapidd.reliability.retransmits") != j.Retransmits {
		t.Errorf("reliability counter %d != job retransmits %d",
			metrics.Get("rapidd.reliability.retransmits"), j.Retransmits)
	}
	if metrics.Get("rapidd.reliability.acked") == 0 {
		t.Error("acked counter not bumped")
	}

	// A fault-free job reports zero retransmits.
	clean := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3})
	if clean.Status != StatusDone || clean.Retransmits != 0 {
		t.Fatalf("clean job: %s retransmits=%d, want done with 0", clean.Status, clean.Retransmits)
	}
}

// TestServerFailingJobReleasesAdmission is the admission-leak regression
// test: a job whose fault plan is unsurvivable (every transmission dropped,
// so the engine's retry budget is exhausted) must fail without leaking one
// unit of booked admission budget, and the machine must still run
// subsequent jobs.
func TestServerFailingJobReleasesAdmission(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{
		AvailMem:   1 << 40,
		JobTimeout: 10 * time.Second,
		Metrics:    metrics,
		hooks: hooks{exec: func(spec JobSpec, opt *rapid.ExecOptions) {
			if spec.Verify {
				opt.Faults = rapid.Faults{Seed: 1, DropFrac: 1}
			}
		}},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3, Verify: true})
	if j.Status != StatusFailed {
		t.Fatalf("unsurvivable job: %s, want failed", j.Status)
	}
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("failed job leaked admission budget: inUse=%d queued=%d", inUse, queued)
	}

	// The budget is intact: a normal job still runs to completion.
	ok := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3})
	if ok.Status != StatusDone {
		t.Fatalf("follow-up job: %s (%s)", ok.Status, ok.Error)
	}
	if _, inUse, _, _ := srv.adm.snapshot(); inUse != 0 {
		t.Fatalf("inUse=%d after completion", inUse)
	}
}

// TestServerPanicRecoveryReleasesAdmission injects a panic into the
// execution path: the job must fail (not crash the daemon), its booked
// DemandUnits must be released during unwinding, and the server must keep
// serving jobs afterwards.
func TestServerPanicRecoveryReleasesAdmission(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{AvailMem: 1 << 40, Metrics: metrics, hooks: hooks{exec: func(spec JobSpec, _ *rapid.ExecOptions) {
		if spec.Seed == 99 {
			panic("injected kernel fault")
		}
	}}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 99, Procs: 3})
	if j.Status != StatusFailed || !strings.Contains(j.Error, "panicked") {
		t.Fatalf("panicking job: %s (%q), want failed with panic message", j.Status, j.Error)
	}
	if metrics.Get("rapidd.jobs.panics") != 1 {
		t.Errorf("panics counter %d, want 1", metrics.Get("rapidd.jobs.panics"))
	}
	if _, inUse, _, queued := srv.adm.snapshot(); inUse != 0 || queued != 0 {
		t.Fatalf("panicking job leaked admission budget: inUse=%d queued=%d", inUse, queued)
	}

	ok := solveSync(t, ts, JobSpec{Kind: "chol", N: 100, Seed: 3, Procs: 3})
	if ok.Status != StatusDone {
		t.Fatalf("daemon did not survive the panic: follow-up job %s (%s)", ok.Status, ok.Error)
	}
}

// TestVerifyRejectsTamperedPlan tampers the compiled plan between compile
// and admission (via the test hook): the static verifier must reject the
// job before any budget is booked, surface the findings in the job record
// and bump the rejection counter.
func TestVerifyRejectsTamperedPlan(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics, AvailMem: 1 << 40, hooks: hooks{plan: func(p *rapid.Plan) {
		// A peak that disagrees with the symbolic replay: the stale-plan
		// signature.
		p.Mem.Procs[0].Peak += 1 << 20
	}}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 60, Seed: 1, Procs: 2})
	if j.Status != StatusFailed {
		t.Fatalf("tampered plan ran: %s", j.Status)
	}
	if !strings.Contains(j.Error, "static verifier") {
		t.Fatalf("error does not name the verifier: %q", j.Error)
	}
	if len(j.VerifyFindings) == 0 {
		t.Fatal("job record carries no findings")
	}
	found := false
	for _, f := range j.VerifyFindings {
		if f.Class == "peak-mismatch" && f.Proc == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings lack the seeded peak-mismatch: %+v", j.VerifyFindings)
	}
	if metrics.Get("rapidd.verify.rejected") != 1 {
		t.Fatalf("verify.rejected = %d, want 1", metrics.Get("rapidd.verify.rejected"))
	}
	// No admission units may remain booked after the rejection.
	if _, inUse, _, _ := srv.adm.snapshot(); inUse != 0 {
		t.Fatalf("rejected job leaked %d admission units", inUse)
	}
}

// TestVerifyPassesCleanJob checks the happy path increments the pass
// counter and leaves the job record without findings.
func TestVerifyPassesCleanJob(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 60, Seed: 1, Procs: 2})
	if j.Status != StatusDone {
		t.Fatalf("clean job failed: %s (%s)", j.Status, j.Error)
	}
	if len(j.VerifyFindings) != 0 {
		t.Fatalf("clean job carries findings: %+v", j.VerifyFindings)
	}
	if metrics.Get("rapidd.verify.passed") == 0 {
		t.Fatal("verify.passed not incremented")
	}
}

// TestVerifyVerdictMemoized checks that repeat serves of the same cached
// plan skip re-verification: the second identical job hits the memoized
// verdict instead of incrementing verify.passed again.
func TestVerifyVerdictMemoized(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := JobSpec{Kind: "chol", N: 60, Seed: 1, Procs: 2}
	for i := 0; i < 2; i++ {
		if j := solveSync(t, ts, spec); j.Status != StatusDone {
			t.Fatalf("job %d failed: %s (%s)", i, j.Status, j.Error)
		}
	}
	if got := metrics.Get("rapidd.verify.passed"); got != 1 {
		t.Fatalf("verify.passed = %d, want 1 (verdict not memoized)", got)
	}
	if got := metrics.Get("rapidd.verify.cached"); got != 1 {
		t.Fatalf("verify.cached = %d, want 1", got)
	}
}

// TestPositiveMemPercentNeverUnconstrained: 1% of a small problem's TOT
// truncates to 0, which rapid.Options reads as "no limit", so the job used
// to run on the unconstrained plan. A positive mem_percent compiles under a
// budget of at least 1 — here one the problem cannot meet.
func TestPositiveMemPercentNeverUnconstrained(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	j := solveSync(t, ts, JobSpec{Kind: "chol", N: 8, Block: 1, Procs: 2, MemPercent: 1})
	if j.Status != StatusFailed || !strings.Contains(j.Error, "not executable under memory budget 1 ") {
		t.Fatalf("mem_percent=1 of a TOT below 100: %s %q", j.Status, j.Error)
	}
}
