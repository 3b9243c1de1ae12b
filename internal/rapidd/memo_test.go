package rapidd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/rapid"
)

// The tests of the request path's lookup: a spec served before goes from
// the decoded request to rapid.Execute without generating, building or
// fingerprinting anything (Server.resolve). What they guard is that the
// lookup can only trade time, never answers.

// post submits spec to srv and waits for the job, with no socket between.
func post(t testing.TB, srv *Server, spec JobSpec) Job {
	t.Helper()
	return submit(t, srv, spec, "/v1/solve?wait=1")
}

// submit posts spec to the solve endpoint at url and decodes the answer.
func submit(t testing.TB, srv *Server, spec JobSpec, url string) Job {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", w.Code, w.Body)
	}
	var job Job
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	return job
}

// normalized is spec as the daemon sees it after decoding.
func normalized(t testing.TB, spec JobSpec) JobSpec {
	t.Helper()
	if err := normalizeSpec(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// held returns what the plan cache holds under spec's name.
func held(t testing.TB, srv *Server, spec JobSpec) (*resolved, *rapid.Plan) {
	t.Helper()
	rv, plan, src, err := srv.resolve(normalized(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if src != rapid.FromMemory {
		t.Fatalf("spec %+v resolved from %q: the cache did not hold it", spec, src)
	}
	return rv, plan
}

func mustDone(t testing.TB, j Job) Job {
	t.Helper()
	if j.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", j.ID, j.Status, j.Error)
	}
	return j
}

// sharedPlanSeeds are two chol n=120 (procs 4, block 8) matrices whose
// random couplings fall into the same blocks: one structure, one
// fingerprint, one plan — and different values.
var sharedPlanSeeds = [2]uint64{32, 38}

// TestHotSolveSkipsInspector is the gain as a gate: the second solve of a
// key builds no problem and touches no plan-cache fill path, and finding
// its problem and plan allocates no more than the name it looks them up by
// — a matrix, a task graph or a fingerprint would each cost hundreds.
func TestHotSolveSkipsInspector(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics})
	spec := JobSpec{Kind: "chol", N: 400, Seed: 7, Verify: true}
	cold := mustDone(t, post(t, srv, spec))
	if cold.PlanSource != "compiled" || metrics.Get("rapidd.problem.miss") != 1 || metrics.Get("rapidd.problem.hit") != 0 {
		t.Fatalf("first solve: plan_source %q, counters %v", cold.PlanSource, metrics.Snapshot())
	}
	memHits := metrics.Get("plancache.hit.mem")
	hot := mustDone(t, post(t, srv, spec))
	if hot.PlanSource != "memory" || hot.Fingerprint != cold.Fingerprint {
		t.Fatalf("second solve: plan_source %q fingerprint %q, want memory and %q", hot.PlanSource, hot.Fingerprint, cold.Fingerprint)
	}
	if math.Float64bits(hot.Residual) != math.Float64bits(cold.Residual) || hot.Residual > 1e-8 {
		t.Errorf("residual %g on the shared problem, %g as built", hot.Residual, cold.Residual)
	}
	if miss, hit := metrics.Get("rapidd.problem.miss"), metrics.Get("rapidd.problem.hit"); miss != 1 || hit != 1 {
		t.Errorf("after the second solve: rapidd.problem.miss %d hit %d, want 1 and 1", miss, hit)
	}
	if got := metrics.Get("plancache.hit.mem") - memHits; got != 1 {
		t.Errorf("the hit counted %d plancache.hit.mem, want 1", got)
	}
	if got := metrics.Get("plancache.miss"); got != 1 {
		t.Errorf("plancache.miss %d, want 1", got)
	}
	if hot.Tasks != cold.Tasks || hot.Objects != cold.Objects || hot.PeakUnits != cold.PeakUnits || hot.DemandUnits != cold.DemandUnits {
		t.Errorf("records differ: cold %+v hot %+v", cold, hot)
	}

	norm := normalized(t, spec)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := srv.resolve(norm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a hot resolve allocates %.0f times, want at most 1 (the name)", allocs)
	}
}

// TestProblemKeyFieldsNeverShare: specs that differ in any one field of the
// problem key resolve to problems of their own.
func TestProblemKeyFieldsNeverShare(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics})
	base := JobSpec{Kind: "chol", N: 120, Seed: 1, Procs: 4, Block: 8, Verify: true}
	specs := map[string]JobSpec{"base": base}
	for field, mutate := range map[string]func(*JobSpec){
		"kind":  func(s *JobSpec) { s.Kind = "lu" },
		"n":     func(s *JobSpec) { s.N = 140 },
		"seed":  func(s *JobSpec) { s.Seed = 2 },
		"procs": func(s *JobSpec) { s.Procs = 3 },
		"block": func(s *JobSpec) { s.Block = 6 },
	} {
		spec := base
		mutate(&spec)
		specs[field] = spec
	}
	for field, spec := range specs {
		if j := mustDone(t, post(t, srv, spec)); j.PlanSource != "compiled" || j.Residual > 1e-6 {
			t.Errorf("%s: plan_source %q residual %g", field, j.PlanSource, j.Residual)
		}
	}
	if miss, hit := metrics.Get("rapidd.problem.miss"), metrics.Get("rapidd.problem.hit"); miss != int64(len(specs)) || hit != 0 {
		t.Fatalf("rapidd.problem.miss %d hit %d, want %d and 0", miss, hit, len(specs))
	}
	owner := map[any]string{}
	for field, spec := range specs {
		rv, plan := held(t, srv, spec)
		for _, p := range []any{rv, rv.pb, rv.pb.Program, plan} {
			if other, dup := owner[p]; dup {
				t.Errorf("specs %q and %q share %T", other, field, p)
			}
			owner[p] = field
		}
	}
	// What is not in the problem key does not build a second problem.
	other := base
	other.Tenant, other.Priority, other.Verify, other.DeadlineMS = "gold", "high", false, 5000
	if j := mustDone(t, post(t, srv, other)); j.PlanSource != "memory" {
		t.Errorf("same problem for another tenant: plan_source %q", j.PlanSource)
	}
	if rv, _ := held(t, srv, other); owner[rv] != "base" {
		t.Errorf("tenant, priority, verify or deadline changed the problem a spec resolves to")
	}
	// The heuristic picks another plan, and so another name; spelling it
	// differently does not.
	shout := base
	shout.Heuristic = "MPO"
	if rv, _ := held(t, srv, shout); owner[rv] != "base" {
		t.Errorf(`heuristic "MPO" and the default "mpo" resolve apart`)
	}
}

// TestSharedPlanSeedsKeepOwnValues: two seeds whose structures coincide
// share one plan and one task graph, and each factors its own matrix.
func TestSharedPlanSeedsKeepOwnValues(t *testing.T) {
	var alone [2]Job
	for i, seed := range sharedPlanSeeds {
		alone[i] = mustDone(t, post(t, New(Config{}), JobSpec{N: 120, Seed: seed, Verify: true}))
	}
	if alone[0].Fingerprint != alone[1].Fingerprint {
		t.Fatalf("seeds %v no longer share a fingerprint; pick another pair", sharedPlanSeeds)
	}
	if alone[0].Residual == alone[1].Residual {
		t.Fatalf("seeds %v have one residual %g: the test cannot tell their values apart", sharedPlanSeeds, alone[0].Residual)
	}

	srv := New(Config{})
	for round := 0; round < 2; round++ { // the second round is all lookups
		for i, seed := range sharedPlanSeeds {
			j := mustDone(t, post(t, srv, JobSpec{N: 120, Seed: seed, Verify: true}))
			if math.Float64bits(j.Residual) != math.Float64bits(alone[i].Residual) || j.Residual > 1e-8 {
				t.Errorf("round %d seed %d: residual %g, alone %g", round, seed, j.Residual, alone[i].Residual)
			}
			if want := map[bool]string{true: "compiled", false: "memory"}[round == 0 && i == 0]; j.PlanSource != want {
				t.Errorf("round %d seed %d: plan_source %q, want %q", round, seed, j.PlanSource, want)
			}
		}
	}
	if srv.cache.Len() != 1 {
		t.Fatalf("cache holds %d plans, want 1", srv.cache.Len())
	}
	rv0, plan0 := held(t, srv, JobSpec{N: 120, Seed: sharedPlanSeeds[0]})
	rv1, plan1 := held(t, srv, JobSpec{N: 120, Seed: sharedPlanSeeds[1]})
	if plan0 != plan1 || rv0.pb == rv1.pb {
		t.Fatalf("want one plan and two problems, have plans %p %p problems %p %p", plan0, plan1, rv0.pb, rv1.pb)
	}
	if g := plan0.Schedule.G; rv0.pb.Program.G != g || rv1.pb.Program.G != g {
		t.Errorf("one structure, three task graphs: plan %p, problems %p and %p", g, rv0.pb.Program.G, rv1.pb.Program.G)
	}
}

// TestTenantsShareOneProblemConcurrently: jobs that differ only in tenant
// both execute, at the same time, on the one problem
// the cache holds. Run under -race this is the check that an execution
// only reads it.
func TestTenantsShareOneProblemConcurrently(t *testing.T) {
	// Both tenants' jobs are past resolve and admission when they meet
	// here; the warm-up job, under the default tenant, passes.
	var meet sync.WaitGroup
	meet.Add(2)
	rendezvous := func(spec JobSpec, _ *rapid.ExecOptions) {
		if spec.Tenant != "default" {
			meet.Done()
			meet.Wait()
		}
	}
	metrics := trace.NewMetrics()
	srv := New(Config{Workers: 2, Metrics: metrics, hooks: hooks{exec: rendezvous}})
	spec := JobSpec{N: 120, Seed: 5, Verify: true}
	warm := mustDone(t, post(t, srv, spec))
	jobs := make([]Job, 2)
	var wg sync.WaitGroup
	for i, tenant := range []string{"gold", "bronze"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := spec
			s.Tenant = tenant
			jobs[i] = post(t, srv, s)
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		mustDone(t, j)
		if j.PlanSource != "memory" {
			t.Errorf("job %s: plan_source %q, want the cached plan", j.ID, j.PlanSource)
		}
		if math.Float64bits(j.Residual) != math.Float64bits(warm.Residual) || j.Residual > 1e-8 {
			t.Errorf("job %s: residual %g, want %g", j.ID, j.Residual, warm.Residual)
		}
	}
	if miss, hit := metrics.Get("rapidd.problem.miss"), metrics.Get("rapidd.problem.hit"); miss != 1 || hit != 2 {
		t.Errorf("rapidd.problem.miss %d hit %d, want 1 and 2: the tenants did not share the problem", miss, hit)
	}
}

// TestEvictedPlanRecompiles: a problem goes when its plan goes. With room
// for one plan, a key whose plan another key pushed out is a full miss —
// generate, build, compile — and passes.
func TestEvictedPlanRecompiles(t *testing.T) {
	a := JobSpec{N: 120, Seed: 1, Verify: true}
	b := JobSpec{N: 120, Seed: 2, Verify: true}
	probe := New(Config{})
	mustDone(t, post(t, probe, a))
	_, plan := held(t, probe, a)

	metrics := trace.NewMetrics()
	srv := New(Config{CacheMemBudget: plan.Bytes() + 16, Metrics: metrics})
	for i, step := range []struct {
		spec JobSpec
		want string
	}{{a, "compiled"}, {a, "memory"}, {b, "compiled"}, {a, "compiled"}, {a, "memory"}} {
		j := mustDone(t, post(t, srv, step.spec))
		if j.PlanSource != step.want || j.Residual > 1e-8 {
			t.Errorf("step %d (seed %d): plan_source %q residual %g, want %q", i, step.spec.Seed, j.PlanSource, j.Residual, step.want)
		}
		if n := srv.cache.Len(); n != 1 {
			t.Errorf("step %d: %d plans held, want 1", i, n)
		}
	}
	if miss, hit, evict := metrics.Get("rapidd.problem.miss"), metrics.Get("rapidd.problem.hit"), metrics.Get("plancache.evict"); miss != 3 || hit != 2 || evict != 2 {
		t.Errorf("rapidd.problem.miss %d hit %d plancache.evict %d, want 3, 2, 2", miss, hit, evict)
	}
}

// TestAdoptedGraphIsThePlans: whichever tier a plan came from, the problem
// the cache holds beside it runs on the plan's copy of the task graph and
// keeps none of its own.
func TestAdoptedGraphIsThePlans(t *testing.T) {
	dir := t.TempDir()
	first := JobSpec{N: 120, Seed: sharedPlanSeeds[0], Verify: true}
	second := JobSpec{N: 120, Seed: sharedPlanSeeds[1], Verify: true}
	check := func(srv *Server, spec JobSpec, source string) {
		t.Helper()
		j := mustDone(t, post(t, srv, spec))
		if j.PlanSource != source || j.Residual > 1e-8 {
			t.Fatalf("seed %d: plan_source %q residual %g, want %q", spec.Seed, j.PlanSource, j.Residual, source)
		}
		rv, plan := held(t, srv, spec)
		if rv.pb.Program.G != plan.Schedule.G {
			t.Errorf("plan from %s: the problem keeps a task graph of its own", source)
		}
	}
	srv := New(Config{CacheDir: dir})
	check(srv, first, "compiled")
	check(srv, second, "memory") // a new problem for a plan already held
	check(New(Config{CacheDir: dir}), first, "disk")
}

// TestReplanFindsCappedPlanByName: a job replanned under AVAIL_MEM names
// its capped plan as it names the first, so its repeat compiles nothing
// and fingerprints nothing.
func TestReplanFindsCappedPlanByName(t *testing.T) {
	spec := JobSpec{N: 100, Seed: 5, Procs: 3, Verify: true}
	ref := mustDone(t, post(t, New(Config{}), spec))
	metrics := trace.NewMetrics()
	srv := New(Config{AvailMem: ref.DemandUnits * 2 / 3, Metrics: metrics})
	cold := mustDone(t, post(t, srv, spec))
	if !cold.Replanned || cold.Fingerprint == ref.Fingerprint {
		t.Fatalf("job not replanned under two thirds of its demand: %+v", cold)
	}
	compiles, memHits := metrics.Get("plancache.miss"), metrics.Get("plancache.hit.mem")
	hot := mustDone(t, post(t, srv, spec))
	if !hot.Replanned || hot.Fingerprint != cold.Fingerprint || hot.DemandUnits != cold.DemandUnits || hot.Residual > 1e-8 {
		t.Errorf("repeat: %+v, first %+v", hot, cold)
	}
	if got := metrics.Get("plancache.miss") - compiles; got != 0 {
		t.Errorf("the repeat compiled %d plans", got)
	}
	if got := metrics.Get("plancache.hit.mem") - memHits; got != compiles {
		t.Errorf("the repeat made %d memory hits, want one per plan the first compiled (%d)", got, compiles)
	}
	norm := normalized(t, spec)
	rv, plan := held(t, srv, spec)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := srv.planForBudget(norm, rv.pb.Program, rv.opt, plan, srv.cfg.AvailMem); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("a hot replan allocates %.0f times, want at most 2 (one name per capped plan tried)", allocs)
	}
}
