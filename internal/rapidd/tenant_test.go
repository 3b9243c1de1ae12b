package rapidd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func postSolveBody(t *testing.T, ts *httptest.Server, body, tenantHeader string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve?wait=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantHeader != "" {
		req.Header.Set("X-Tenant", tenantHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTenantHeaderAndValidation: the X-Tenant header names the tenant
// when the spec does not, the spec wins when both are present, and
// illegal tenants or priorities are 400s before any job is created.
func TestTenantHeaderAndValidation(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSolveBody(t, ts, `{"kind":"chol","n":90,"seed":1,"procs":2}`, "acme")
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.Spec.Tenant != "acme" {
		t.Fatalf("header-derived tenant %q, want acme", j.Spec.Tenant)
	}

	resp = postSolveBody(t, ts, `{"tenant":"inline","kind":"chol","n":90,"seed":2,"procs":2}`, "acme")
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.Spec.Tenant != "inline" {
		t.Fatalf("spec tenant %q, want inline (spec beats header)", j.Spec.Tenant)
	}

	resp = postSolveBody(t, ts, `{"kind":"chol","n":90,"seed":3,"procs":2}`, "")
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.Spec.Tenant != "default" || j.Spec.Priority != "normal" {
		t.Fatalf("defaults tenant=%q priority=%q, want default/normal", j.Spec.Tenant, j.Spec.Priority)
	}

	for name, body := range map[string]string{
		"tenant with slash": `{"tenant":"a/b"}`,
		"tenant too long":   `{"tenant":"` + strings.Repeat("x", 65) + `"}`,
		"unknown priority":  `{"priority":"urgent"}`,
	} {
		resp := postSolveBody(t, ts, body, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	// An illegal header tenant is also refused, not silently renamed.
	resp = postSolveBody(t, ts, `{"kind":"chol"}`, "bad tenant!")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad header tenant: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestOpenRejectsDeadTenantConfig: a quota or weight keyed by a name no
// request can carry would never apply, and a negative quota would read as
// uncapped, so Open refuses both instead of starting with them silently.
// A non-positive weight stays legal: it is documented to mean 1.
func TestOpenRejectsDeadTenantConfig(t *testing.T) {
	long := strings.Repeat("a", 65)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" means Open must succeed
	}{
		{"quota key with a space", Config{TenantQuotas: map[string]int64{"gold team": 5}}, "gold team"},
		{"empty quota key", Config{TenantQuotas: map[string]int64{"": 5}}, "TenantQuotas"},
		{"quota key too long", Config{TenantQuotas: map[string]int64{long: 5}}, long},
		{"negative quota", Config{TenantQuotas: map[string]int64{"gold": -1}}, "negative quota"},
		{"negative default quota", Config{DefaultTenantQuota: -1}, "DefaultTenantQuota"},
		{"weight key with a slash", Config{TenantWeights: map[string]float64{"gold/1": 3}}, "gold/1"},
		// The label unnamed tenants count under is not a tenant either.
		{"weight key naming the fold", Config{TenantWeights: map[string]float64{otherTenants: 3}}, otherTenants},
		{"valid quotas and weights", Config{
			TenantQuotas:       map[string]int64{"gold": 5, "bronze.2": 0},
			DefaultTenantQuota: 3,
			TenantWeights:      map[string]float64{"gold": 3, "bronze_2": 0},
		}, ""},
	} {
		srv, err := Open(tc.cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Open: %v, want success", tc.name, err)
		case tc.want == "":
			if err := srv.Drain(context.Background()); err != nil {
				t.Errorf("%s: Drain: %v", tc.name, err)
			}
		case err == nil:
			t.Errorf("%s: Open accepted the config, want an error naming %q", tc.name, tc.want)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: Open: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestTenantQuotaIsolation: a tenant at its quota queues its own next job
// without blocking another tenant's admission (no cross-tenant
// head-of-line blocking), and the ledgers drain to zero afterwards.
func TestTenantQuotaIsolation(t *testing.T) {
	spec := JobSpec{Kind: "chol", N: 100, Seed: 5, Procs: 3}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}
	demand := ref.DemandUnits

	metrics := trace.NewMetrics()
	g := newGate(func(s JobSpec) bool { return s.Tenant == "greedy" })
	srv := New(Config{
		AvailMem:     demand * 3,
		TenantQuotas: map[string]int64{"greedy": demand},
		Workers:      4,
		Metrics:      metrics,
		hooks:        hooks{exec: g.exec},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	g1 := spec
	g1.Tenant = "greedy"
	j1 := solveAsync(t, ts, g1)
	g.wait(t)

	// Second greedy job: same structure (same demand), with verify on. The
	// tenant is at its quota, so quota-aware
	// dispatch keeps the job in the ready queue — no worker picks it up
	// only to park at admission — even though 2×demand of machine budget
	// is free.
	g2 := spec
	g2.Tenant = "greedy"
	g2.Verify = true
	j2 := solveAsync(t, ts, g2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if d := srv.queue.depths(); d["greedy"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("greedy job 2 never held back at its quota")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A different tenant sails past the greedy backlog.
	o1 := spec
	o1.Tenant = "other"
	jo := solveSync(t, ts, o1)
	if jo.Status != StatusDone {
		t.Fatalf("other tenant blocked behind greedy quota: %s (%s)", jo.Status, jo.Error)
	}
	if d := srv.queue.depths(); d["greedy"] != 1 {
		t.Fatalf("greedy queue depth %d while other completed, want 1", d["greedy"])
	}
	if _, queued := srv.adm.tenantSnapshot(); queued["greedy"] != 0 {
		t.Fatalf("greedy parked %d waiters at admission; dispatch should have held them in the queue", queued["greedy"])
	}

	// The stats endpoint exposes the per-tenant ledgers while they hold.
	inUse, _ := srv.adm.tenantSnapshot()
	if inUse["greedy"] != demand {
		t.Fatalf("greedy in-use %d, want %d", inUse["greedy"], demand)
	}

	g.open()
	if j := getJob(t, ts, j2.ID, true); j.Status != StatusDone {
		t.Fatalf("greedy job 2: %s (%s)", j.Status, j.Error)
	}
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("greedy job 1: %s (%s)", j.Status, j.Error)
	}
	if _, inUseTotal, _, queuedN := srv.adm.snapshot(); inUseTotal != 0 || queuedN != 0 {
		t.Fatalf("ledgers leaked: inUse=%d queued=%d", inUseTotal, queuedN)
	}
	if inUse, _ := srv.adm.tenantSnapshot(); len(inUse) != 0 {
		t.Fatalf("tenant ledger leaked: %v", inUse)
	}
}

// TestQuotaAwareDispatchSmallPool is the small-pool hog/victim regression
// for quota-aware dispatch: with only two workers and a hog tenant whose
// quota fits exactly one job, the hog's backlog must stay in the ready
// queue — not be handed to the second worker, which would park at
// admission and wedge the whole pool — so a victim tenant's job completes
// while the hog still holds. Pre-fix, worker dispatch ignored admission
// headroom and tenant isolation silently required Workers to exceed the
// quota-blocked backlog.
func TestQuotaAwareDispatchSmallPool(t *testing.T) {
	spec := JobSpec{Kind: "chol", N: 100, Seed: 7, Procs: 3}
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, spec)
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe job: %s demand=%d", ref.Status, ref.DemandUnits)
	}
	demand := ref.DemandUnits

	// Job A waits at the exec gate, after admission booked it.
	g := newGate(func(s JobSpec) bool { return s.Tenant == "hog" && s.Seed == spec.Seed })
	srv := New(Config{
		AvailMem:     demand * 4,
		TenantQuotas: map[string]int64{"hog": demand}, // fits exactly one job
		Workers:      2,
		hooks:        hooks{exec: g.exec},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	// Job A books the hog's whole quota and holds it; wait until it is at
	// the gate so the quota is provably booked before the backlog exists.
	a := spec
	a.Tenant = "hog"
	ja := solveAsync(t, ts, a)
	g.wait(t)

	var backlog []Job
	for i := 0; i < 3; i++ {
		b := spec
		b.Tenant = "hog"
		b.Seed = uint64(200 + i) // distinct specs
		backlog = append(backlog, solveAsync(t, ts, b))
	}

	// The victim sails past the hog backlog on the free worker.
	v := spec
	v.Tenant = "victim"
	jv := solveSync(t, ts, v)
	if jv.Status != StatusDone {
		t.Fatalf("victim wedged behind hog backlog on a 2-worker pool: %s (%s)", jv.Status, jv.Error)
	}
	if j := getJob(t, ts, ja.ID, false); j.Status != StatusRunning {
		t.Fatalf("hog job A already %s while held at the gate — victim completion proves nothing", j.Status)
	}
	// The old failure signature is a hog job parked AT ADMISSION (a worker
	// picked it up and wedged); quota-aware dispatch keeps the backlog in
	// the WFQ instead.
	if _, queued := srv.adm.tenantSnapshot(); queued["hog"] != 0 {
		t.Fatalf("%d hog jobs parked at admission: dispatch handed out non-dispatchable work", queued["hog"])
	}
	if d := srv.queue.depths(); d["hog"] != 3 {
		t.Fatalf("hog ready-queue depth %d, want 3 (backlog waits in the queue)", d["hog"])
	}

	// Once A releases, the headroom wake drains the backlog under the
	// quota; nothing is stranded by the dispatch filter.
	g.open()
	for _, j := range backlog {
		if got := getJob(t, ts, j.ID, true); got.Status != StatusDone {
			t.Fatalf("backlog job %s: %s (%s)", j.ID, got.Status, got.Error)
		}
	}
	if got := getJob(t, ts, ja.ID, true); got.Status != StatusDone {
		t.Fatalf("hog job A: %s (%s)", got.Status, got.Error)
	}
	if _, inUse, _, queuedN := srv.adm.snapshot(); inUse != 0 || queuedN != 0 {
		t.Fatalf("ledgers leaked: inUse=%d queued=%d", inUse, queuedN)
	}
}

// TestTenantQuotaTooSmallFailsExplicitly: a job whose smallest possible
// footprint exceeds its tenant quota fails with a definite error rather
// than queueing forever.
func TestTenantQuotaTooSmallFailsExplicitly(t *testing.T) {
	srv := New(Config{
		AvailMem:     1 << 40,
		TenantQuotas: map[string]int64{"tiny": 1},
		Workers:      1,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	j := solveSync(t, ts, JobSpec{Tenant: "tiny", Kind: "chol", N: 100, Seed: 5, Procs: 3})
	if j.Status != StatusFailed {
		t.Fatalf("impossible-quota job: %s, want failed", j.Status)
	}
	if j.Error == "" {
		t.Fatal("impossible-quota job failed without an error")
	}
}

// TestShedRetryAfterPriorityOrder: shed responses tell low-priority
// clients to back off 2× the base hint and high-priority half of it —
// each jittered into [base, 2×base] by a seeded hash, so two identically
// seeded, identically driven servers emit the same hints — and the
// per-class and per-tenant shed counters advance.
func TestShedRetryAfterPriorityOrder(t *testing.T) {
	metrics := trace.NewMetrics()
	g := newGate(nil)
	srv := New(Config{
		Workers:       -1,
		QueueDepth:    -1,
		RetryAfter:    2 * time.Second,
		Metrics:       metrics,
		TenantWeights: map[string]float64{"shedme": 1},
		hooks:         hooks{exec: g.exec},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer g.open()

	// The one worker is held, so every later request is shed.
	j1 := solveAsync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: 71, Procs: 2})
	g.wait(t)

	// Fixed order (not map iteration): the jitter is a pure function of
	// the refusal sequence, so the order must be deterministic too.
	base := map[string]int{"low": 4, "normal": 2, "high": 1}
	var hints []string
	for _, prio := range []string{"low", "normal", "high"} {
		resp := postSolveBody(t, ts, `{"tenant":"shedme","priority":"`+prio+`","kind":"chol","n":90,"seed":72,"procs":2}`, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: HTTP %d, want 429", prio, resp.StatusCode)
		}
		got := resp.Header.Get("Retry-After")
		hints = append(hints, got)
		secs, err := strconv.Atoi(got)
		if err != nil || secs < base[prio] || secs > 2*base[prio] {
			t.Errorf("%s: Retry-After %q, want in [%d, %d]", prio, got, base[prio], 2*base[prio])
		}
		if metrics.Get("rapidd.jobs.shed_"+prio) != 1 {
			t.Errorf("shed_%s counter %d, want 1", prio, metrics.Get("rapidd.jobs.shed_"+prio))
		}
	}
	// Same seed, same refusal sequence → identical hints on a second server.
	g2 := newGate(nil)
	srv2 := New(Config{Workers: -1, QueueDepth: -1, RetryAfter: 2 * time.Second, hooks: hooks{exec: g2.exec}})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer g2.open()
	solveAsync(t, ts2, JobSpec{Kind: "chol", N: 90, Seed: 71, Procs: 2})
	g2.wait(t)
	for i, prio := range []string{"low", "normal", "high"} {
		resp := postSolveBody(t, ts2, `{"tenant":"shedme","priority":"`+prio+`","kind":"chol","n":90,"seed":72,"procs":2}`, "")
		resp.Body.Close()
		if got := resp.Header.Get("Retry-After"); got != hints[i] {
			t.Errorf("%s: Retry-After %q on twin server, want %q (seeded jitter must be reproducible)", prio, got, hints[i])
		}
	}
	if metrics.Get("rapidd.jobs.shed") != 3 {
		t.Errorf("shed counter %d, want 3", metrics.Get("rapidd.jobs.shed"))
	}
	if srv.tenantStat("shedme").shed != 3 {
		t.Errorf("tenant shed counter %d, want 3", srv.tenantStat("shedme").shed)
	}
	g.open()
	if j := getJob(t, ts, j1.ID, true); j.Status != StatusDone {
		t.Fatalf("held job: %s (%s)", j.Status, j.Error)
	}
}

// TestJobsOrderAndLimit: GET /v1/jobs lists jobs in submission order,
// ?limit keeps the newest N, and a bad limit is a 400.
func TestJobsOrderAndLimit(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		j := solveSync(t, ts, JobSpec{Kind: "chol", N: 90, Seed: uint64(80 + i), Procs: 2})
		ids = append(ids, j.ID)
	}
	fetch := func(q string) ([]Job, int) {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode
		}
		var jobs []Job
		if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
			t.Fatal(err)
		}
		return jobs, resp.StatusCode
	}

	all, _ := fetch("")
	if len(all) != 5 {
		t.Fatalf("listed %d jobs, want 5", len(all))
	}
	for i, j := range all {
		if j.ID != ids[i] {
			t.Fatalf("position %d: %q, want %q (submission order)", i, j.ID, ids[i])
		}
		if i > 0 && all[i].Seq <= all[i-1].Seq {
			t.Fatalf("Seq not increasing at %d", i)
		}
	}
	newest, _ := fetch("?limit=2")
	if len(newest) != 2 || newest[0].ID != ids[3] || newest[1].ID != ids[4] {
		t.Fatalf("limit=2 returned %v, want the newest two %v", newest, ids[3:])
	}
	if empty, _ := fetch("?limit=0"); len(empty) != 0 {
		t.Fatalf("limit=0 returned %d jobs", len(empty))
	}
	if _, code := fetch("?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("limit=-1: HTTP %d, want 400", code)
	}
	if _, code := fetch("?limit=x"); code != http.StatusBadRequest {
		t.Fatalf("limit=x: HTTP %d, want 400", code)
	}
}

// TestTenantStateBounded: tenant names are the client's to choose, so
// what the daemon keeps per name must not grow with them. 2 000 finished
// jobs from distinct tenants the configuration does not name leave one
// counter block for the configured tenant and one for the rest, no fair
// queue entry, and a /metrics body within a constant of its size after the
// first of them.
func TestTenantStateBounded(t *testing.T) {
	srv := New(Config{Workers: 2, TenantWeights: map[string]float64{"gold": 2}})
	scrape := func() string {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return w.Body.String()
	}
	const tenants = 2000
	unnamed := func(i int) JobSpec { return JobSpec{Tenant: fmt.Sprintf("t%04d", i), N: 8, Procs: 1} }
	mustDone(t, post(t, srv, JobSpec{Tenant: "gold", N: 8, Procs: 1}))
	mustDone(t, post(t, srv, unnamed(0)))
	start := len(scrape())
	for i := 1; i < tenants; i++ {
		mustDone(t, post(t, srv, unnamed(i)))
	}

	srv.mu.Lock()
	blocks := len(srv.tenants)
	srv.mu.Unlock()
	srv.queue.mu.Lock()
	entries := len(srv.queue.tenants)
	srv.queue.mu.Unlock()
	if blocks != 2 || entries != 0 {
		t.Errorf("after %d tenants: %d counter blocks, want 2 (gold and the rest); %d fair-queue entries, want 0", tenants, blocks, entries)
	}
	body := scrape()
	if grew := len(body) - start; grew > 1024 {
		t.Errorf("/metrics grew by %d bytes over %d tenants (%d → %d), want at most 1 kB", grew, tenants, start, len(body))
	}
	samples, err := trace.ParsePromText(body)
	if err != nil {
		t.Fatal(err)
	}
	completed := map[string]float64{}
	for _, s := range samples {
		if s.Name == "rapidd_tenant_completed_total" {
			completed[s.Labels["tenant"]] = s.Value
		}
	}
	var rest float64
	for label, n := range completed {
		if label != "gold" {
			rest = n
		}
	}
	if len(completed) != 2 || completed["gold"] != 1 || rest != tenants {
		t.Errorf("rapidd_tenant_completed_total has %d labels, gold %v, the rest %v; want 2 labels, 1 and %d", len(completed), completed["gold"], rest, tenants)
	}
}

// TestMetricsEndpoint: GET /metrics emits strict Prometheus text — the
// acceptance bar is that a real scraper's parser accepts it — including
// per-tenant series, the latency summary, and the plan-cache, drain and
// journal gauges that make it the daemon's one stats surface.
func TestMetricsEndpoint(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Workers: 2, AvailMem: 1 << 30, TenantQuotas: map[string]int64{"gold": 1 << 29},
		TenantWeights: map[string]float64{"silver": 1}, JournalDir: t.TempDir(), CacheMemBudget: 64 << 20, Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, tenant := range []string{"gold", "silver", "gold"} {
		j := solveSync(t, ts, JobSpec{Tenant: tenant, Kind: "chol", N: 90, Seed: uint64(90 + i), Procs: 2})
		if j.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, j.Status, j.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	var sb strings.Builder
	if _, err := sb.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	samples, err := trace.ParsePromText(body)
	if err != nil {
		t.Fatalf("/metrics output rejected by the strict parser: %v\n%s", err, body)
	}
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	checks := map[string]float64{
		"rapidd_jobs_completed":                          3,
		`rapidd_tenant_submitted_total{tenant="gold"}`:   2,
		`rapidd_tenant_completed_total{tenant="silver"}`: 1,
		`rapidd_tenant_quota_units{tenant="gold"}`:       float64(1 << 29),
		"rapidd_job_latency_us_count":                    3,
		"rapidd_avail_mem_units":                         float64(1 << 30),
		"rapidd_workers":                                 2,
		"rapidd_cache_entries":                           float64(srv.cache.Len()),
		"rapidd_cache_bytes":                             float64(srv.cache.Bytes()),
		"rapidd_cache_budget_bytes":                      64 << 20,
		"rapidd_draining":                                0,
		"rapidd_journal_active_bytes":                    float64(srv.jnl.Stats().ActiveBytes),
		"rapidd_journal_truncated_bytes":                 0,
		"rapidd_journal_rearm_failures_total":            0,
		"rapidd_journal_compact_failures_total":          0,
		"rapidd_journal_cleanup_failures_total":          0,
	}
	for key, want := range checks {
		if got, ok := byKey[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if byKey[`rapidd_job_latency_us{quantile="0.99"}`] <= 0 {
		t.Error("latency p99 missing or zero")
	}
	if byKey["rapidd_cache_entries"] <= 0 || byKey["rapidd_cache_bytes"] <= 0 || byKey["rapidd_journal_active_bytes"] <= 0 {
		t.Errorf("cache entries %v, cache bytes %v, journal active bytes %v; want all positive",
			byKey["rapidd_cache_entries"], byKey["rapidd_cache_bytes"], byKey["rapidd_journal_active_bytes"])
	}
	// Determinism: a second scrape renders tenants in the same order.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	resp2.Body.Close()
	if _, err := trace.ParsePromText(body2); err != nil {
		t.Fatalf("second scrape rejected: %v", err)
	}
	goldIdx := strings.Index(body2, `tenant="gold"`)
	silverIdx := strings.Index(body2, `tenant="silver"`)
	if goldIdx < 0 || silverIdx < 0 || goldIdx > silverIdx {
		t.Fatalf("tenant series not in sorted order (gold@%d silver@%d)", goldIdx, silverIdx)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
