// Package rapidd implements the long-running solve service: an HTTP daemon
// that accepts sparse factorization jobs, compiles-or-fetches their
// execution plans through the plan cache (so repeated structures skip the
// inspector phase, and a repeated spec finds its built problem and its plan
// by name, without generating, building or fingerprinting anything), and
// executes them on a bounded worker pool under a machine-wide memory-budget
// admission controller.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/solve      submit a job (body: JobSpec); ?wait=1 blocks until
//	                    the job is terminal and returns the full job; the
//	                    X-Tenant header names the tenant when the spec
//	                    does not
//	GET    /v1/jobs/{id}  job status and result; ?wait=1 blocks until
//	                      the job is terminal
//	DELETE /v1/jobs/{id}  cancel the job if it has not started executing
//	                      (see Server.Cancel); answers with the job
//	GET  /v1/jobs       the jobs the daemon holds — every unfinished one
//	                    and the newest 1024 finished ones; an older id is
//	                    404 — in submission order; ?limit=N keeps the
//	                    newest N
//	GET  /metrics       Prometheus text format: counters, pool,
//	                    admission, cache and journal gauges, per-tenant
//	                    series, latency summaries
//	GET  /healthz       readiness: 200 while every acknowledged submit is
//	                    durable, 503 + JSON state while the journal is
//	                    degraded (see health.go)
//
// Scale-out serving (see pool.go, wfq.go): Workers jobs execute
// concurrently; a bounded queue absorbs bursts, drains weighted-fair
// across tenants, and sheds overload with 429 + Retry-After — low
// priority first, each class told to back off proportionally longer;
// every accepted job executes itself, while identical specs share one
// compile through the plan cache; per-job deadlines bound queue wait +
// admission wait (an executing job is bounded by JobTimeout's no-progress
// watchdog instead); Drain stops intake and lets the backlog finish on
// shutdown.
//
// Durability (see journal.go in internal/journal): with a journal
// directory configured, every job transition is written ahead to a
// checksummed log, and every answer that reports a job is preceded by the
// fsync that makes the records behind it durable — one fsync per
// synchronous job, shared with every commit running beside it. A
// restarted daemon replays the log, re-queues jobs that were waiting,
// explicitly fails jobs that were executing, and continues ID allocation
// past the journal's high-water mark — no acknowledged job is ever
// silently forgotten.
//
// Memory admission: with a configured AVAIL_MEM, the daemon books each
// job's aggregate planned high-water mark (sum over processors of the MAP
// plan's peaks) before execution and queues jobs that would overflow the
// machine budget — concurrent workers share the one budget; a single job
// larger than the whole budget is recompiled under a per-processor
// capacity that fits (falling back to DTS with slice merging, whose
// S1/p + h space bound makes tight budgets executable) rather than
// rejected.
package rapidd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/factor"
	"repro/internal/iofault"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/util"
	"repro/rapid"
)

// Config configures a Server.
type Config struct {
	// CacheDir is the on-disk plan store ("" disables the disk tier).
	CacheDir string
	// CacheMemBudget bounds the in-memory plan cache — the heap bytes its
	// plans and the built problems held beside them keep live — in bytes
	// (0: default).
	CacheMemBudget int64
	// AvailMem is the machine-wide memory budget in abstract units; jobs
	// whose planned footprint would overflow it queue until space frees.
	// 0 disables admission control.
	AvailMem int64
	// JobTimeout bounds each job's execution: it becomes the executor's
	// watchdog BlockTimeout, so a job stalled by faults (or a kernel bug)
	// fails with a machine-state dump instead of wedging a worker forever.
	// 0 uses the executor default; a negative value is an error.
	JobTimeout time.Duration
	// Workers bounds how many jobs execute concurrently (the worker-pool
	// size). Concurrent jobs share AVAIL_MEM through the admission
	// controller. 0 means max(2, GOMAXPROCS); 1 serves serially (the
	// pre-pool behaviour, and the baseline of the EXPERIMENTS.md load
	// comparison); negative is clamped to 1.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-yet-running jobs.
	// A request arriving at a full queue is shed with 429 + Retry-After
	// instead of growing the backlog. 0 means 64; negative means no
	// buffering (a request is accepted only if a worker is idle).
	QueueDepth int
	// DefaultDeadline applies to jobs whose spec sets no deadline_ms: the
	// job must start executing (queue wait and admission wait included)
	// within this long or fail with a deadline error. A job that is
	// already executing is not interrupted: JobTimeout's no-progress
	// watchdog bounds it. 0 disables.
	DefaultDeadline time.Duration
	// RetryAfter is the client back-off hint sent with shed (429)
	// responses (default 1s, rounded up to whole seconds on the wire).
	// The hint is priority-aware: low-priority sheds are told 2× this
	// base and high-priority half of it, so backed-off traffic returns
	// in priority order.
	RetryAfter time.Duration
	// JournalDir enables the write-ahead job journal in this directory
	// ("" disables durability). See internal/journal.
	JournalDir string
	// TenantQuotas caps each named tenant's admitted memory at a slice of
	// AVAIL_MEM, in the same abstract units. Tenants absent from the map
	// fall back to DefaultTenantQuota. Open rejects a key no request can
	// carry (see validTenant) and a negative quota.
	TenantQuotas map[string]int64
	// DefaultTenantQuota caps tenants without an explicit quota
	// (0: uncapped — only AVAIL_MEM limits them; negative: an error).
	DefaultTenantQuota int64
	// TenantWeights sets weighted-fair-queueing weights (default 1 —
	// equal shares; higher drains proportionally faster under
	// contention). Non-positive weights are treated as 1; Open rejects
	// a key no request can carry. A tenant named here or in TenantQuotas
	// gets its own counters and /metrics label; every other tenant counts
	// under one (see statTenant).
	TenantWeights map[string]float64
	// Metrics receives cache and job counters (nil: a fresh registry).
	Metrics *trace.Metrics

	// hooks are the package's test seams into solve. They are part of the
	// Config so that Open has them before any worker starts: a job
	// recovered from the journal passes them like any other.
	hooks hooks
}

// hooks lets a test reach into a job's solve; each is nil in production.
type hooks struct {
	// plan may tamper with the compiled plan before static verification,
	// exercising the rejection path.
	plan func(*rapid.Plan)
	// exec runs after admission booked the job and before the executor
	// starts. It may hold the job there (a gate), inject protocol faults
	// through opt.Faults, or panic to exercise the job-level recovery.
	exec func(spec JobSpec, opt *rapid.ExecOptions)
	// rearmBackoff replaces the re-arm loop's base period (0: the
	// rearmBackoff constant), so a chaos test re-arms within milliseconds.
	rearmBackoff time.Duration
	// journalFS is the filesystem the journal runs on (nil: the real OS).
	// Chaos tests inject an iofault.FaultFS here to kill and revive the
	// disk under the daemon.
	journalFS iofault.FS
}

// JobSpec is a solve request.
type JobSpec struct {
	// Tenant names the submitting tenant for quota accounting, fair
	// queueing and metrics. Empty falls back to the request's X-Tenant
	// header, then to "default". Allowed: [a-zA-Z0-9._-], at most 64
	// bytes.
	Tenant string `json:"tenant"`
	// Priority is "low", "normal" (default) or "high". Under overload the
	// daemon sheds low first: each class may only fill a fraction of the
	// backlog (low ½, normal ¾, high all of it).
	Priority string `json:"priority"`
	// Kind selects the factorization: "chol" (default) or "lu".
	Kind string `json:"kind"`
	// N is the approximate matrix order (default 120).
	N int `json:"n"`
	// Seed drives the deterministic matrix generator (default 1). Equal
	// (kind, n, seed, block, procs) specs produce identical structures —
	// and therefore identical plan fingerprints.
	Seed uint64 `json:"seed"`
	// Procs is the number of virtual processors (default 4).
	Procs int `json:"procs"`
	// Block is the block/panel size (default 8).
	Block int `json:"block"`
	// Heuristic is rcp, mpo (default), dts, dtsmerge or treemem.
	Heuristic string `json:"heuristic"`
	// MemPercent caps each processor at this percentage of the schedule's
	// no-recycling requirement (0: uncapped).
	MemPercent int `json:"mem_percent"`
	// Verify computes the numeric residual after execution.
	Verify bool `json:"verify"`
	// DeadlineMS bounds, in milliseconds from submission, how long the
	// job may wait — in the queue and at admission — before it executes;
	// a job past it fails with a deadline error. An executing job is not
	// interrupted: JobTimeout's no-progress watchdog bounds it. 0 uses the
	// server's DefaultDeadline (which may be "none"). Range [0, 600000].
	DeadlineMS int `json:"deadline_ms"`
}

// JobStatus enumerates a job's lifecycle. Pending → (Queued →) Running →
// Done/Failed; Queued appears only when admission has to wait.
type JobStatus string

const (
	StatusPending JobStatus = "pending"
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Job is the externally visible job record.
type Job struct {
	ID string `json:"id"`
	// Seq is the submission sequence number: monotonic across restarts
	// (seeded from the journal high-water mark), it defines the order
	// GET /v1/jobs lists jobs in.
	Seq    uint64    `json:"seq"`
	Spec   JobSpec   `json:"spec"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	// Recovered marks a job reconstructed from the journal after a
	// restart — re-queued if it had not started, failed explicitly if it
	// was executing when the previous daemon died.
	Recovered bool `json:"recovered,omitempty"`
	// Durable is true when the submit record is fsync'd in the journal: a
	// crash cannot lose this job. False when durability is disabled (no
	// -journal-dir), or on the record of a job whose submit the journal
	// lost to a fault — that job's own answer was refused with 503.
	Durable bool `json:"durable"`

	// PlanSource says where the plan came from: compiled, memory, disk.
	PlanSource string `json:"plan_source,omitempty"`
	// Fingerprint is the plan's content address.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Replanned is true when the unconstrained plan exceeded AVAIL_MEM and
	// the job was recompiled under a fitting per-processor capacity.
	Replanned bool `json:"replanned,omitempty"`
	// DemandUnits is the admitted aggregate memory high-water mark.
	DemandUnits int64 `json:"demand_units,omitempty"`
	// Tasks and Objects describe the compiled graph.
	Tasks   int `json:"tasks,omitempty"`
	Objects int `json:"objects,omitempty"`
	// Retransmits is the machine-wide retransmission count of the engine's
	// reliability layer: nonzero only when messages are lost, which in
	// process happens only under a fault plan a test injects.
	Retransmits int64 `json:"retransmits,omitempty"`
	// MAPs is the total number of memory allocation points executed.
	MAPs int `json:"maps,omitempty"`
	// PeakUnits is the max per-processor peak observed by the executor.
	PeakUnits int64 `json:"peak_units,omitempty"`
	// Residual is the verification residual (Verify jobs only).
	Residual float64 `json:"residual,omitempty"`
	// VerifyFindings carries the static verifier's diagnostics when the
	// plan was rejected before admission (Status failed).
	VerifyFindings []rapid.VerifyFinding `json:"verify_findings,omitempty"`
	// Coalesced is always false and never sent: every job executes
	// itself. It remains for Go code that still reads it (bench/serve.go).
	Coalesced bool `json:"-"`
	// InspectMS and ExecMS time the two phases: everything from the top of
	// solve to the verifier's verdict — finding or building the
	// problem and the plan — and the executor run.
	InspectMS float64 `json:"inspect_ms"`
	ExecMS    float64 `json:"exec_ms"`
	// StateUS is the executor's protocol-state occupancy summed across
	// processors, microseconds per state (REC/EXE/SND/MAP/END).
	StateUS map[string]int64 `json:"state_us,omitempty"`

	// submittedAt feeds the end-to-end latency histograms behind
	// /metrics; zero for jobs recovered from the journal (their original
	// submission time did not survive the crash, so they are excluded).
	submittedAt time.Time
}

// tenantStats aggregates per-tenant lifecycle counters for /metrics, one
// block per statTenant label.
type tenantStats struct {
	submitted int64
	completed int64
	failed    int64
	shed      int64
	expired   int64
	recovered int64
}

// Server is the rapidd HTTP handler.
type Server struct {
	cfg     Config
	cache   *rapid.PlanCache
	metrics *trace.Metrics
	adm     *admission
	mux     *http.ServeMux

	// jnl is the write-ahead job journal (nil: durability disabled).
	jnl *journal.Journal
	// latency and queueWait feed the /metrics summaries: end-to-end
	// microseconds from submission to terminal state, and microseconds a
	// job spent queued before a worker picked it up.
	latency   *trace.Histogram
	queueWait *trace.Histogram

	// queue feeds the worker pool weighted-fair across tenants (see
	// pool.go, wfq.go).
	queue *wfqueue
	wg    sync.WaitGroup

	// stopRearm stops the journal's re-arm loop (see health.go); Drain
	// closes it.
	stopRearm chan struct{}
	// shedSeq sequences the deterministic Retry-After jitter.
	shedSeq atomic.Uint64

	mu   sync.Mutex
	jobs map[string]*job // every job this daemon knows, by ID; guarded-by: mu
	// history is a ring of the ids of the terminal jobs in jobs, in the
	// order they finished; finished counts them and so names the next slot.
	history  [jobHistory]string      // guarded-by: mu
	finished uint64                  // guarded-by: mu
	tenants  map[string]*tenantStats // guarded-by: mu
	seq      uint64                  // guarded-by: mu
	draining bool                    // guarded-by: mu
}

// Open creates a Server; with JournalDir set it replays the journal
// first, recovering queued jobs and explicitly failing the ones the
// previous daemon was executing when it died.
func Open(cfg Config) (*Server, error) {
	if cfg.JobTimeout < 0 {
		return nil, errors.New("rapidd: negative JobTimeout")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = trace.NewMetrics()
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers < 2 {
			cfg.Workers = 2
		}
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.hooks.rearmBackoff <= 0 {
		cfg.hooks.rearmBackoff = rearmBackoff
	}
	if err := checkTenantConfig(cfg); err != nil {
		return nil, err
	}
	weight := func(tenant string) float64 {
		if w, ok := cfg.TenantWeights[tenant]; ok && w > 0 {
			return w
		}
		return 1
	}
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		cache: rapid.NewPlanCache(rapid.PlanCacheConfig{
			Dir:       cfg.CacheDir,
			MemBudget: cfg.CacheMemBudget,
			Metrics:   cfg.Metrics,
		}),
		adm:       newAdmission(cfg.AvailMem, cfg.TenantQuotas, cfg.DefaultTenantQuota),
		queue:     newWFQueue(cfg.QueueDepth, weight),
		latency:   trace.NewHistogram(),
		queueWait: trace.NewHistogram(),
		jobs:      make(map[string]*job),
		tenants:   make(map[string]*tenantStats),
		stopRearm: make(chan struct{}),
	}
	// Quota-aware dispatch: the WFQ pop consults the admission ledgers so
	// workers skip tenants with no headroom (their jobs would only park at
	// admission, wedging pool slots), and admission wakes the queue when
	// headroom reappears. This keeps tenant isolation intact at any pool
	// size — a small-Workers deployment cannot have its whole pool wedged
	// behind one tenant's quota.
	s.queue.dispatchable = s.adm.dispatchable
	s.adm.onHeadroom = s.queue.wake
	if cfg.JournalDir != "" {
		jnl, rep, err := journal.Open(cfg.JournalDir, journal.Options{FS: cfg.hooks.journalFS})
		if err != nil {
			return nil, err
		}
		s.jnl, s.seq = jnl, jnl.HighSeq()
		// Recovery runs before the workers start, so recovered jobs keep
		// their original submission order at the head of the queue.
		for _, lj := range rep.Live {
			s.recover(lj)
		}
		s.wg.Add(1)
		go s.rearmLoop()
	}
	s.wg.Add(cfg.Workers)
	s.queue.expect(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// otherTenants is the label every tenant the configuration does not name
// counts under. validTenant rejects it, so it never merges with a tenant
// a request can name.
const otherTenants = "(other)"

// statTenant is the label a tenant's counters and /metrics series go
// under: its own name if TenantQuotas or TenantWeights names it,
// otherTenants otherwise. Tenant names are the client's to choose; this
// keeps the per-tenant state the daemon reports bounded by its
// configuration, not by its traffic.
func (s *Server) statTenant(tenant string) string {
	if _, ok := s.cfg.TenantQuotas[tenant]; ok {
		return tenant
	}
	if _, ok := s.cfg.TenantWeights[tenant]; ok {
		return tenant
	}
	return otherTenants
}

// tenantStat returns the counter block the tenant counts under, creating
// it on first use. Called with s.mu NOT held.
func (s *Server) tenantStat(tenant string) *tenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantStatLocked(tenant)
}

func (s *Server) tenantStatLocked(tenant string) *tenantStats {
	label := s.statTenant(tenant)
	ts := s.tenants[label]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[label] = ts
	}
	return ts
}

// foldTenants re-keys a per-tenant gauge by statTenant, summing the
// tenants that share the otherTenants label.
func foldTenants[V int | int64](s *Server, byTenant map[string]V) map[string]V {
	out := make(map[string]V, len(byTenant))
	for name, v := range byTenant {
		out[s.statTenant(name)] += v
	}
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxSpecBytes bounds a solve request body; a spec is a few hundred bytes,
// so anything near the cap is garbage and is rejected before decoding.
// It equals the journal's spec cap so a body that passes the HTTP limit
// can always be journaled — with and without -journal-dir, the accepted
// input space is identical.
const maxSpecBytes = journal.MaxSpecBytes

// parseJobSpec decodes and normalizes a solve request body. It is the
// whole input surface of the solve endpoint, factored out so the fuzz
// target exercises exactly what the handler runs: any input either yields
// a spec whose fields are within their documented ranges, or an error —
// never a panic, never an out-of-range spec. defaultTenant (the request's
// X-Tenant header; may be empty) applies only when the spec names none.
func parseJobSpec(data []byte, defaultTenant string) (JobSpec, error) {
	var spec JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("rapidd: bad job spec: %v", err)
	}
	if spec.Tenant == "" {
		spec.Tenant = defaultTenant
	}
	if err := normalizeSpec(&spec); err != nil {
		return spec, err
	}
	return spec, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, "rapidd: bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := parseJobSpec(body, r.Header.Get("X-Tenant"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prio, _ := parsePriority(spec.Priority)

	// Degraded gate: while the journal cannot make a submit durable, an
	// honest 503 beats a silently weaker acknowledgement. (The
	// journalWrite error path below catches the race where the journal
	// degrades between this check and the append.)
	if s.degraded() {
		s.refuseDegraded(w, prio)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.Inc("rapidd.jobs.refused_draining", 1)
		http.Error(w, "rapidd: draining, not accepting jobs", http.StatusServiceUnavailable)
		return
	}
	// Reserve a queue slot before anything else: shedding stays O(1) —
	// no job object, no journal write, no goroutine.
	slot, ok := s.queue.reserve(spec.Tenant, prio, false)
	if !ok {
		s.mu.Unlock()
		s.shed(w, spec.Tenant, prio)
		return
	}
	s.seq++
	rec := Job{ID: fmt.Sprintf("j%04d", s.seq), Seq: s.seq, Spec: spec, Durable: s.jnl != nil, submittedAt: time.Now()}
	s.mu.Unlock()
	wait := r.URL.Query().Get("wait") != ""

	// Write-ahead: the submit record is written before the job exists and
	// before a worker can see it (commit below), so the journal can never
	// hold an admit or completion for a job it never saw submitted. A
	// refused submit leaves a gap in the ID sequence and nothing else. The
	// fsync waits for the answer that promises the job: an asynchronous
	// acknowledgement is that answer, so it syncs here; a synchronous one
	// comes after the job finishes, and one fsync then covers its submit,
	// admit and complete records together.
	// body is the raw spec JSON as received: replay re-parses it through
	// the same parseJobSpec the handler used.
	pos, err := s.journalWrite(journal.Record{
		Op: journal.OpSubmit, Seq: rec.Seq, ID: rec.ID,
		Tenant: spec.Tenant, Priority: spec.Priority, Spec: body,
	})
	if err == nil && !wait {
		if err = s.journalSync(pos); err != nil {
			s.metrics.Inc("rapidd.journal.errors", 1)
		}
	}
	if err != nil {
		s.queue.abort(slot)
		if errors.Is(err, journal.ErrDegraded) {
			s.refuseDegraded(w, prio)
		} else {
			http.Error(w, "rapidd: journal write failed: "+err.Error(), http.StatusInternalServerError)
		}
		return
	}
	j := s.newJob(rec, true)
	s.journaled(j, pos)
	s.queue.commit(slot, j)
	s.metrics.Inc("rapidd.jobs.submitted", 1)

	if wait {
		select {
		case <-j.done:
			if rec.Durable && !s.promise(j, pos) {
				// The journal lost the submit before an fsync covered it:
				// nothing durable records this job, and the answer must
				// not claim otherwise.
				s.refuseDegraded(w, prio)
				return
			}
		case <-r.Context().Done():
			// The synchronous client went away: cancel the job if it has
			// not started executing, so an abandoned request cannot hold
			// a queue slot or book admission budget.
			s.Cancel(rec.ID)
		}
	}
	s.writeJob(w, j)
}

// handleJob serves one job: GET reads it, DELETE cancels it first (a
// no-op once it is executing or finished); either waits for the terminal
// state with ?wait=1.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete {
		s.Cancel(id)
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// The waiting client went away; release the handler goroutine
			// instead of parking it until the job (maybe hours later)
			// finishes. The job itself keeps running — only this watch
			// ends — and the response writes into a dead connection.
		}
	}
	// What the answer reports is durable first. The answer goes out even
	// if the fsync fails: the fault is counted, the re-arm loop finds the
	// degraded journal, and the submit this job rests on was durable when
	// it was acked.
	s.syncJob(j)
	s.writeJob(w, j)
}

// shed refuses one request in O(1) — no job record, no journal write, no
// goroutine — and tells the client when to come back. The Retry-After
// hint scales with how early the class sheds: low-priority traffic backs
// off 2× the base, normal 1×, high ½× (see retryAfterSecs), so retries
// return in priority order instead of re-stampeding at once.
func (s *Server) shed(w http.ResponseWriter, tenant string, prio int) {
	s.metrics.Inc("rapidd.jobs.shed", 1)
	s.metrics.Inc("rapidd.jobs.shed_"+priorityName(prio), 1)
	s.mu.Lock()
	s.tenantStatLocked(tenant).shed++
	s.mu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(prio)))
	http.Error(w, "rapidd: queue full, retry later", http.StatusTooManyRequests)
}

// retryAfterSecs computes the Retry-After hint for refused requests: the
// priority-scaled base (low 2×, normal 1×, high ½×, rounded up to whole
// seconds) plus a seeded jitter of up to one base, spreading backed-off
// clients over [base, 2×base] instead of re-stampeding at one instant.
// The jitter is a hash of (priority, refusal#) — a pure function of the
// request sequence, so identically driven servers emit identical hints
// and load tests stay reproducible.
func (s *Server) retryAfterSecs(prio int) int {
	after := s.cfg.RetryAfter
	switch prio {
	case prioLow:
		after *= 2
	case prioHigh:
		after /= 2
	}
	secs := int((after + time.Second - 1) / time.Second)
	n := s.shedSeq.Add(1)
	jitter := int(util.Hash64(1, uint64(prio), n) % uint64(secs+1))
	return secs + jitter
}

// journalWrite writes rec at the edge that owes it (no-op without a
// journal) and returns its position (0 if it was not written), counting a
// failure. A refused submit refuses the request; at any later edge the
// job proceeds (the daemon must not wedge on a full disk), the counter
// shows the gap, and the re-arm loop finds the degraded journal on its
// next check. No fsync: the answer that reports the edge makes it durable
// (promise, syncJob).
func (s *Server) journalWrite(rec journal.Record) (journal.Pos, error) {
	if s.jnl == nil {
		return 0, nil
	}
	pos, err := s.jnl.Write(rec)
	if err != nil {
		s.metrics.Inc("rapidd.journal.errors", 1)
	}
	return pos, err
}

// journalSync makes every record up to pos durable (no-op without a
// journal); concurrent callers share one fsync.
func (s *Server) journalSync(pos journal.Pos) error {
	if s.jnl == nil {
		return nil
	}
	return s.jnl.Sync(pos)
}

// journalSyncCounted is journalSync for an answer that goes out whether
// or not the fsync succeeds: a failure is counted, like a failed write. A
// record lost to an earlier fault window is not a new failure: the fault
// was counted by whoever hit it.
func (s *Server) journalSyncCounted(pos journal.Pos) error {
	err := s.journalSync(pos)
	if err != nil && !errors.Is(err, journal.ErrLost) {
		s.metrics.Inc("rapidd.journal.errors", 1)
	}
	return err
}

// journaled notes that j's newest journal record ends at pos.
func (s *Server) journaled(j *job, pos journal.Pos) {
	s.mu.Lock()
	j.at = max(j.at, pos)
	s.mu.Unlock()
}

// syncJob makes j's journal records durable before an answer reports
// its state.
func (s *Server) syncJob(j *job) error {
	s.mu.Lock()
	at := j.at
	s.mu.Unlock()
	return s.journalSyncCounted(at)
}

// promise makes the records behind a synchronous answer durable before it
// is given — one fsync, shared with every commit running beside it, or
// none if one already covered them. It reports whether j is still
// durable: false if the journal lost its submit record (at submit) to a
// fault, which also clears Job.Durable. A later record lost after a
// durable submit leaves the job durable: the journal holds it for the
// re-arm, and the submit is what the acknowledgement promises.
func (s *Server) promise(j *job, submit journal.Pos) bool {
	if s.syncJob(j) == nil || s.journalSync(submit) == nil {
		return true
	}
	s.update(j, func(r *Job) { r.Durable = false })
	return false
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "rapidd: bad limit "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	s.mu.Lock()
	list := make([]Job, 0, len(s.jobs))
	var at journal.Pos
	for _, j := range s.jobs {
		list = append(list, j.Job)
		at = max(at, j.at)
	}
	s.mu.Unlock()
	s.journalSyncCounted(at)
	// Deterministic submission order. Sorting by Seq, not ID: IDs are
	// derived from Seq but compare lexicographically, which breaks once
	// the counter outgrows its zero padding (j10000 < j9999).
	sort.Slice(list, func(i, k int) bool { return list[i].Seq < list[k].Seq })
	if limit >= 0 && len(list) > limit {
		// The cap keeps the newest jobs — the tail of the submission
		// order — so a monitoring poll sees current traffic, bounded.
		list = list[len(list)-limit:]
	}
	writeJSON(w, list)
}

// handleMetrics renders the Prometheus text exposition — the daemon's one
// stats surface: every trace.Metrics counter, pool, admission, plan-cache
// and journal gauges, per-tenant gauges (queue depth, booked budget,
// quota) and counters (submitted/completed/failed/shed/expired/
// recovered) labelled by statTenant, and latency summaries.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := trace.NewPromWriter()
	for name, v := range s.metrics.Snapshot() {
		pw.Counter("rapidd_"+trace.PromSanitize(strings.TrimPrefix(name, "rapidd.")), "", nil, float64(v))
	}

	avail, inUse, peakMem, queued := s.adm.snapshot()
	pw.Gauge("rapidd_avail_mem_units", "configured AVAIL_MEM budget", nil, float64(avail))
	pw.Gauge("rapidd_mem_in_use_units", "admitted memory demand", nil, float64(inUse))
	pw.Gauge("rapidd_mem_peak_units", "high-water admitted demand", nil, float64(peakMem))
	pw.Gauge("rapidd_admission_waiters", "jobs parked at admission", nil, float64(queued))
	depth, capacity := s.queue.stats()
	pw.Gauge("rapidd_queue_depth", "jobs queued for a worker", nil, float64(depth))
	pw.Gauge("rapidd_queue_capacity", "configured backlog bound", nil, float64(capacity))
	pw.Gauge("rapidd_workers", "worker-pool size", nil, float64(s.cfg.Workers))
	pw.Gauge("rapidd_cache_entries", "plans in the memory tier", nil, float64(s.cache.Len()))
	pw.Gauge("rapidd_cache_bytes", "bytes charged to the memory tier: live plans and the problems attached", nil, float64(s.cache.Bytes()))
	pw.Gauge("rapidd_cache_budget_bytes", "the memory tier's budget", nil, float64(s.cache.Budget()))

	mem, admQueue := s.adm.tenantSnapshot()
	tenantMem, tenantAdmQueue := foldTenants(s, mem), foldTenants(s, admQueue)
	tenantDepth := foldTenants(s, s.queue.depths())
	s.mu.Lock()
	pw.Gauge("rapidd_draining", "1 once Drain stopped intake", nil, boolGauge(s.draining))
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.tenants[name]
		lbl := map[string]string{"tenant": name}
		pw.Counter("rapidd_tenant_submitted_total", "jobs accepted per tenant", lbl, float64(ts.submitted))
		pw.Counter("rapidd_tenant_completed_total", "jobs completed per tenant", lbl, float64(ts.completed))
		pw.Counter("rapidd_tenant_failed_total", "jobs failed per tenant", lbl, float64(ts.failed))
		pw.Counter("rapidd_tenant_shed_total", "requests shed per tenant", lbl, float64(ts.shed))
		pw.Counter("rapidd_tenant_expired_total", "jobs past deadline per tenant", lbl, float64(ts.expired))
		pw.Counter("rapidd_tenant_recovered_total", "jobs recovered from the journal per tenant", lbl, float64(ts.recovered))
		pw.Gauge("rapidd_tenant_queue_depth", "queued jobs per tenant", lbl, float64(tenantDepth[name]))
		pw.Gauge("rapidd_tenant_mem_in_use_units", "booked budget per tenant", lbl, float64(tenantMem[name]))
		pw.Gauge("rapidd_tenant_admission_waiters", "admission waiters per tenant", lbl, float64(tenantAdmQueue[name]))
		pw.Gauge("rapidd_tenant_quota_units", "configured sub-quota per tenant", lbl, float64(s.adm.quota(name)))
	}
	s.mu.Unlock()

	pw.Summary("rapidd_job_latency_us", "submission-to-terminal latency", s.latency)
	pw.Summary("rapidd_queue_wait_us", "submission-to-worker-pickup wait", s.queueWait)
	if s.jnl != nil {
		st := s.jnl.Stats()
		pw.Gauge("rapidd_journal_segments", "journal segment files", nil, float64(st.Segments))
		pw.Gauge("rapidd_journal_live_jobs", "non-terminal jobs in the journal", nil, float64(st.LiveJobs))
		pw.Gauge("rapidd_journal_degraded", "1 while the active segment is poisoned", nil, boolGauge(st.Degraded))
		pw.Gauge("rapidd_journal_active_bytes", "size of the active segment", nil, float64(st.ActiveBytes))
		pw.Gauge("rapidd_journal_truncated_bytes", "torn-tail bytes discarded at open", nil, float64(st.TruncatedBytes))
		pw.Counter("rapidd_journal_records_total", "journal records this session", nil, float64(st.Records))
		pw.Counter("rapidd_journal_syncs_total", "journal fsyncs this session; concurrent commits share one", nil, float64(st.Syncs))
		pw.Counter("rapidd_journal_compactions_total", "journal compactions this session", nil, float64(st.Compactions))
		pw.Counter("rapidd_journal_rearms_total", "successful re-arms after degradation", nil, float64(st.Rearms))
		pw.Counter("rapidd_journal_rearm_failures_total", "failed re-arm attempts", nil, float64(st.RearmFailures))
		pw.Counter("rapidd_journal_compact_failures_total", "compactions aborted by I/O errors", nil, float64(st.CompactFailures))
		pw.Counter("rapidd_journal_cleanup_failures_total", "non-fatal close/remove errors after a compaction", nil, float64(st.CleanupErrors))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw.WriteTo(w)
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) writeJob(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	rec := j.Job
	s.mu.Unlock()
	writeJSON(w, rec)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// validTenant reports whether name is a legal tenant label: 1–64 bytes
// of [a-zA-Z0-9._-]. The charset is the intersection of what Prometheus
// label values render cleanly and what journal records and header values
// pass through unescaped.
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// checkTenantConfig rejects tenant settings that could never apply: a
// quota or weight keyed by a name no request can carry, and a negative
// quota, which admission would read as uncapped.
func checkTenantConfig(cfg Config) error {
	if cfg.DefaultTenantQuota < 0 {
		return fmt.Errorf("rapidd: negative DefaultTenantQuota %d", cfg.DefaultTenantQuota)
	}
	for name, q := range cfg.TenantQuotas {
		if !validTenant(name) {
			return fmt.Errorf("rapidd: TenantQuotas: bad tenant %q (want 1-64 bytes of [a-zA-Z0-9._-])", name)
		}
		if q < 0 {
			return fmt.Errorf("rapidd: TenantQuotas: tenant %q has negative quota %d", name, q)
		}
	}
	for name := range cfg.TenantWeights {
		if !validTenant(name) {
			return fmt.Errorf("rapidd: TenantWeights: bad tenant %q (want 1-64 bytes of [a-zA-Z0-9._-])", name)
		}
	}
	return nil
}

// maxBlocks bounds a spec's block count ⌈n/block⌉ per dimension. The
// inspector's task graph grows with the block count — cubically for a dense
// Cholesky fill — and is built before admission books anything, so this is
// what keeps one request from taking the host's memory: at 128 blocks a
// block-8 Cholesky of n=1024 is the largest spec accepted.
const maxBlocks = 128

func normalizeSpec(spec *JobSpec) error {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if !validTenant(spec.Tenant) {
		return fmt.Errorf("rapidd: bad tenant %q (want 1-64 bytes of [a-zA-Z0-9._-])", spec.Tenant)
	}
	if _, ok := parsePriority(spec.Priority); !ok {
		return fmt.Errorf("rapidd: unknown priority %q (want low, normal or high)", spec.Priority)
	}
	if spec.Priority == "" {
		spec.Priority = "normal"
	}
	if spec.Kind == "" {
		spec.Kind = "chol"
	}
	if !slices.Contains(factor.Kinds, spec.Kind) {
		return fmt.Errorf("rapidd: unknown kind %q (want %s)", spec.Kind, strings.Join(factor.Kinds, " or "))
	}
	if spec.N == 0 {
		spec.N = 120
	}
	if spec.N < 8 || spec.N > 20000 {
		return fmt.Errorf("rapidd: n=%d out of range [8, 20000]", spec.N)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Procs == 0 {
		spec.Procs = 4
	}
	if spec.Procs < 1 || spec.Procs > 256 {
		return fmt.Errorf("rapidd: procs=%d out of range [1, 256]", spec.Procs)
	}
	if spec.Block == 0 {
		spec.Block = 8
	}
	if spec.Block < 1 || spec.Block > 256 {
		return fmt.Errorf("rapidd: block=%d out of range [1, 256]", spec.Block)
	}
	if nb := (spec.N + spec.Block - 1) / spec.Block; nb > maxBlocks {
		return fmt.Errorf("rapidd: n=%d at block=%d is %d blocks, over %d; use a larger block", spec.N, spec.Block, nb, maxBlocks)
	}
	if spec.Heuristic == "" {
		spec.Heuristic = "mpo"
	}
	if _, err := sched.ParseHeuristic(spec.Heuristic); err != nil {
		return fmt.Errorf("rapidd: %w", err)
	}
	if spec.MemPercent < 0 || spec.MemPercent > 100 {
		return fmt.Errorf("rapidd: mem_percent=%d out of range [0, 100]", spec.MemPercent)
	}
	if spec.DeadlineMS < 0 || spec.DeadlineMS > 600000 {
		return fmt.Errorf("rapidd: deadline_ms=%d out of range [0, 600000]", spec.DeadlineMS)
	}
	return nil
}

// planName is how a request names a plan without building anything: the
// canonical problem key (kind, n, seed, procs, block), the heuristic, and
// the memory budget either as the request states it, a percentage of TOT
// (memPercent), or as a replan fixes it, units per processor (memory).
// The matrix, its task graph and the compile options are functions of these,
// so the name stands for the plan's fingerprint in Server.cache.
func planName(spec JobSpec, h rapid.Heuristic, memPercent int, memory int64) string {
	b := make([]byte, 0, 96)
	b = append(b, spec.Kind...)
	for _, v := range [...]uint64{uint64(spec.N), spec.Seed, uint64(spec.Procs), uint64(spec.Block), uint64(h), uint64(memPercent)} {
		b = strconv.AppendUint(append(b, '/'), v, 10)
	}
	b = strconv.AppendInt(append(b, '/'), memory, 10)
	return string(b)
}

// resolved is what the plan cache holds under a request's planName beside
// the plan: the problem built for the spec and the compile options the
// spec's heuristic and mem_percent came to. Read-only once attached.
type resolved struct {
	pb  *factor.Problem
	opt rapid.Options
}

// resolve finds the built problem and the plan a spec names. A spec served
// before, whose plan the cache still holds, is one lookup: no matrix, no
// task graph, no fingerprint. The miss path generates and builds, compiles
// through the cache, and makes the plan's task graph the problem's own
// before the problem is attached, and so visible to other jobs.
func (s *Server) resolve(spec JobSpec) (*resolved, *rapid.Plan, rapid.CacheSource, error) {
	h, _ := sched.ParseHeuristic(spec.Heuristic)
	name := planName(spec, h, spec.MemPercent, 0)
	if plan, val, ok := s.cache.Lookup(name); ok {
		s.metrics.Inc("rapidd.problem.hit", 1)
		return val.(*resolved), plan, rapid.FromMemory, nil
	}
	s.metrics.Inc("rapidd.problem.miss", 1)
	// Equal specs yield identical structures (the generator is seeded),
	// which is what makes the plan cache effective across requests.
	a, err := factor.Matrix(spec.Kind, spec.N, spec.Seed)
	if err != nil {
		return nil, nil, "", err
	}
	pb, err := factor.Build(spec.Kind, a, spec.Procs, spec.Block)
	if err != nil {
		return nil, nil, "", err
	}
	opt := rapid.Options{Procs: spec.Procs, Heuristic: h}
	if spec.MemPercent > 0 {
		if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, spec.MemPercent); err != nil {
			return nil, nil, "", err
		}
	}
	plan, src, err := rapid.CompileCached(pb.Program, opt, s.cache)
	if err != nil {
		return nil, nil, "", err
	}
	pb.Adopt(plan)
	rv := &resolved{pb: pb, opt: opt}
	s.cache.Attach(plan.Fingerprint, name, rv, pb.Bytes)
	return rv, plan, src, nil
}

// solve runs the job once: resolve its plan, fit it to the budget,
// verify it, book admission and execute. A panic anywhere on that path
// becomes the job's failure instead of a daemon crash; the booked
// admission units are released during unwinding (the release is
// deferred), so a panicking job cannot leak budget.
func (s *Server) solve(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc("rapidd.jobs.panics", 1)
			err = fmt.Errorf("rapidd: job panicked: %v", r)
		}
	}()
	t0 := time.Now()
	spec := j.Spec
	rv, plan, src, err := s.resolve(spec)
	if err != nil {
		return err
	}
	pb, opt := rv.pb, rv.opt
	// The effective budget a single job must fit alone is the tighter of
	// the machine budget and its tenant's sub-quota.
	budget := s.cfg.AvailMem
	if q := s.adm.quota(spec.Tenant); q > 0 && (budget <= 0 || q < budget) {
		budget = q
	}
	replanned := false
	if budget > 0 {
		plan, opt, replanned, err = s.planForBudget(spec, pb.Program, opt, plan, budget)
		if err != nil {
			return err
		}
	}
	if !plan.Executable() {
		return fmt.Errorf("rapidd: plan not executable under memory budget %d (MIN_MEM %d); try dtsmerge or a larger budget", opt.Memory, plan.MinMem())
	}
	if s.cfg.hooks.plan != nil {
		s.cfg.hooks.plan(plan)
	}
	// Static verification gates admission: a defective plan (stale cache,
	// planner bug, tampering) is rejected with its findings before any
	// budget is booked or any executor started. The verdict lives on the
	// plan, so a plan the disk loader already checked, or a repeat serve of
	// a cached plan, is not verified again.
	if plan.Verified() {
		s.metrics.Inc("rapidd.verify.cached", 1)
	} else if res := rapid.VerifyPlan(plan); res.OK() {
		s.metrics.Inc("rapidd.verify.passed", 1)
	} else {
		s.metrics.Inc("rapidd.verify.rejected", 1)
		s.update(j, func(r *Job) { r.VerifyFindings = res.Findings })
		return fmt.Errorf("rapidd: plan rejected by static verifier: %v", res.Err())
	}
	inspectMS := float64(time.Since(t0).Microseconds()) / 1000
	demand := aggregateDemand(plan)
	s.update(j, func(r *Job) {
		r.PlanSource = string(src)
		r.Fingerprint = plan.Fingerprint
		r.Replanned = replanned
		r.DemandUnits = demand
		r.Tasks = plan.Schedule.G.NumTasks()
		r.Objects = plan.Schedule.G.NumObjects()
		r.InspectMS = inspectMS
	})

	// Admission: book the aggregate high-water mark before executing.
	// The job's context bounds the wait — a deadline that expires or a
	// client that disconnects while parked here aborts without booking.
	err = s.adm.acquireCtx(ctx, spec.Tenant, demand, func() {
		s.transition(j, StatusQueued, nil)
	})
	if err != nil {
		return err
	}
	defer s.adm.release(spec.Tenant, demand)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.transition(j, StatusRunning, nil)

	execOpt := pb.Exec
	execOpt.BlockTimeout = s.cfg.JobTimeout
	if s.cfg.hooks.exec != nil {
		s.cfg.hooks.exec(spec, &execOpt)
	}
	t1 := time.Now()
	rep, err := rapid.Execute(pb.Program, plan, execOpt)
	if err != nil {
		return err
	}
	execMS := float64(time.Since(t1).Microseconds()) / 1000

	var peak int64
	maps := 0
	for _, m := range rep.MAPsPerProc {
		maps += m
	}
	for _, p := range rep.PeakUnits {
		if p > peak {
			peak = p
		}
	}
	residual := 0.0
	if spec.Verify {
		residual = pb.Residual(rep.Objects, spec.Seed)
	}
	stateUS := stateOccupancyUS(rep.Occupancy)
	for i, name := range stateNames {
		if us, ok := stateUS[name]; ok {
			s.metrics.Inc(stateCounters[i], us)
		}
	}
	rel := rapid.SumReliability(rep.Reliability)
	s.metrics.Inc("rapidd.reliability.retransmits", int64(rel.Retransmits))
	s.metrics.Inc("rapidd.reliability.dropped", int64(rel.Dropped))
	s.metrics.Inc("rapidd.reliability.dups_sent", int64(rel.DupsSent))
	s.metrics.Inc("rapidd.reliability.dups_dropped", int64(rel.DupDropped))
	s.metrics.Inc("rapidd.reliability.acked", int64(rel.Acked))
	s.update(j, func(r *Job) {
		r.Retransmits = int64(rel.Retransmits)
		r.MAPs = maps
		r.PeakUnits = peak
		r.Residual = residual
		r.ExecMS = execMS
		r.StateUS = stateUS
	})
	return nil
}

// stateNames are the protocol states in StateOccupancy order, the keys of
// a job's state_us, and stateCounters the trace counters their times add
// to: built once, not per job.
var (
	stateNames    = rapid.StateNames()
	stateCounters = func() []string {
		c := make([]string, len(stateNames))
		for i, name := range stateNames {
			c[i] = "rapidd.state." + strings.ToLower(name) + "_us"
		}
		return c
	}()
)

// stateOccupancyUS folds per-processor protocol-state occupancy (seconds)
// into machine-wide microseconds per state.
func stateOccupancyUS(occ []rapid.StateOccupancy) map[string]int64 {
	if len(occ) == 0 {
		return nil
	}
	out := make(map[string]int64, len(stateNames))
	for si, name := range stateNames {
		var us int64
		for _, o := range occ {
			us += int64(o[si] * 1e6)
		}
		out[name] = us
	}
	return out
}

// planForBudget ensures a single job fits its budget on its own — the
// tighter of AVAIL_MEM and the tenant's sub-quota: if the plan's
// aggregate footprint exceeds it, recompile with a per-processor capacity
// that cannot overflow it (sum of per-processor peaks ≤ procs ×
// capacity), first with the requested heuristic, then with DTS + slice
// merging, whose Theorem-2 space bound makes tight budgets executable
// when time-oriented orderings are not.
func (s *Server) planForBudget(spec JobSpec, prog *rapid.Program, opt rapid.Options, plan *rapid.Plan, budget int64) (*rapid.Plan, rapid.Options, bool, error) {
	demand := aggregateDemand(plan)
	if demand <= budget {
		return plan, opt, false, nil
	}
	capacity := budget / int64(opt.Procs)
	capped := opt
	if capped.Memory <= 0 || capped.Memory > capacity {
		capped.Memory = capacity
	}
	s.metrics.Inc("rapidd.jobs.replanned", 1)
	tight, err := s.replan(spec, prog, capped)
	if err == nil && tight.Executable() {
		return tight, capped, true, nil
	}
	merged := capped
	merged.Heuristic = rapid.DTSMerge
	tight, err = s.replan(spec, prog, merged)
	if err != nil {
		return nil, merged, true, err
	}
	return tight, merged, true, nil
}

// replan is rapid.CompileCached for a replan's capped options, behind the
// plan's name: a repeat of the job finds the capped plan as it found the
// first, without fingerprinting the program again.
func (s *Server) replan(spec JobSpec, prog *rapid.Program, capped rapid.Options) (*rapid.Plan, error) {
	name := planName(spec, capped.Heuristic, 0, capped.Memory)
	if plan, _, ok := s.cache.Lookup(name); ok {
		return plan, nil
	}
	plan, _, err := rapid.CompileCached(prog, capped, s.cache)
	if err == nil {
		s.cache.Attach(plan.Fingerprint, name, nil, 0)
	}
	return plan, err
}

// aggregateDemand is the job's machine-wide memory claim: the sum over
// processors of the MAP plan's peak (permanent + live volatile) usage.
func aggregateDemand(plan *rapid.Plan) int64 {
	var sum int64
	for i := range plan.Mem.Procs {
		sum += plan.Mem.Procs[i].Peak
	}
	return sum
}
