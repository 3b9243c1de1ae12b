package rapidd

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/factor"
	"repro/internal/trace"
	"repro/rapid"
)

// TestVerifyDiskServedPlanCheckedOnce: the disk loader must verify what it
// decodes, and the admission gate asks the plan rather than verifying the
// same bytes a second time.
func TestVerifyDiskServedPlanCheckedOnce(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: "chol", N: 60, Seed: 1, Procs: 2}
	serve := func() (Job, *trace.Metrics) {
		metrics := trace.NewMetrics()
		ts := httptest.NewServer(New(Config{CacheDir: dir, Metrics: metrics}))
		defer ts.Close()
		return solveSync(t, ts, spec), metrics
	}
	if j, m := serve(); j.Status != StatusDone || j.PlanSource != "compiled" || m.Get("rapidd.verify.passed") != 1 {
		t.Fatalf("warm-up: %s (%s) source %q, verify.passed %d", j.Status, j.Error, j.PlanSource, m.Get("rapidd.verify.passed"))
	}
	j, m := serve() // a restarted daemon over the same cache directory
	if j.Status != StatusDone || j.PlanSource != "disk" {
		t.Fatalf("restart: %s (%s) source %q, want done from disk", j.Status, j.Error, j.PlanSource)
	}
	if passed, cached := m.Get("rapidd.verify.passed"), m.Get("rapidd.verify.cached"); passed != 0 || cached != 1 {
		t.Fatalf("disk-served plan: verify.passed=%d verify.cached=%d, want 0 and 1", passed, cached)
	}
}

// TestServeShapeTablesStayFlat bounds what a cached plan retains for its
// protocol tables on the n=400 Cholesky serve shape. The memory tier
// charges them (plan.Artifact.Bytes), so every table byte is a byte of
// plans the budget cannot hold; the per-task slice-of-slices layout cost
// 309 KB here.
func TestServeShapeTablesStayFlat(t *testing.T) {
	a, err := factor.Matrix("chol", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := factor.Build("chol", a, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rapid.Compile(pb.Program, rapid.Options{Procs: 4, Heuristic: rapid.MPO})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Leftover goroutines of earlier tests may allocate between the two
	// readings; the smallest of three is the tables' own footprint.
	retained := int64(1) << 62
	for try := 0; try < 3; try++ {
		fresh := &rapid.Plan{Schedule: plan.Schedule, Mem: plan.Mem, Model: plan.Model, Capacity: plan.Capacity}
		before := heap()
		tables := fresh.Tables()
		retained = min(retained, int64(heap())-int64(before))
		runtime.KeepAlive(tables)
	}
	t.Logf("protocol tables retain %d KB for %d tasks", retained>>10, plan.Schedule.G.NumTasks())
	if retained > 150<<10 {
		t.Fatal("want <= 150 KB")
	}
}
