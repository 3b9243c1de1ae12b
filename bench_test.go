package repro_test

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks of the pipeline stages. The table benchmarks run
// the Small-scale workloads so `go test -bench=.` finishes quickly; run
// `go run ./cmd/paper -scale full` for the paper-scale regeneration
// recorded in EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/chol"
	"repro/internal/exec"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/paper"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table1(io.Discard, paper.Small)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table2(io.Discard, paper.Small)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table3(io.Discard, paper.Small)
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table4(io.Discard, paper.Small)
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table5(io.Discard, paper.Small)
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table6(io.Discard, paper.Small)
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table7(io.Discard, paper.Small)
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Table8(io.Discard, paper.Small)
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Figure7(io.Discard, paper.Small)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.Figure3(io.Discard)
	}
}

func BenchmarkExtensionTrisolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ExtensionTrisolve(io.Discard, paper.Small)
	}
}

func BenchmarkAblationMAPPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.AblationMAPPolicy(io.Discard, paper.Small)
	}
}

func BenchmarkAblationSlotDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.AblationSlotDepth(io.Discard, paper.Small)
	}
}

func BenchmarkAblationMergeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.AblationMergeSweep(io.Discard, paper.Small)
	}
}

// --- pipeline micro-benchmarks ---

func cholBench(b *testing.B) (*chol.Problem, []int32) {
	b.Helper()
	rng := util.NewRNG(1)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 120, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: 8, BlockSize: 12})
	if err != nil {
		b.Fatal(err)
	}
	assign, err := sched.OwnerComputeAssign(pr.G, 8)
	if err != nil {
		b.Fatal(err)
	}
	return pr, assign
}

func BenchmarkSymbolicCholesky(b *testing.B) {
	rng := util.NewRNG(2)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(40, 40, true), 300, rng)
	m = m.PermuteSym(sparse.RCM(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.NewBlockPattern2D(m, 16)
	}
}

func BenchmarkStaticSymbolicLU(b *testing.B) {
	rng := util.NewRNG(3)
	m := sparse.AddRandomUnsymLinks(sparse.Grid2D(40, 40, true), 500, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.NewBlockPattern1D(m, 16)
	}
}

func BenchmarkTaskGraphBuildChol(b *testing.B) {
	rng := util.NewRNG(4)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 120, rng)
	m = m.PermuteSym(sparse.RCM(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chol.Build(m, chol.Options{Procs: 8, BlockSize: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskGraphBuildLU(b *testing.B) {
	rng := util.NewRNG(5)
	m := sparse.AddRandomUnsymLinks(sparse.Grid2D(26, 22, true), 500, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lu.Build(m, lu.Options{Procs: 8, BlockSize: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleRCP(b *testing.B) {
	pr, assign := cholBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleRCP(pr.G, assign, 8, sched.T3D()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleMPO(b *testing.B) {
	pr, assign := cholBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleMPO(pr.G, assign, 8, sched.T3D()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleDTS(b *testing.B) {
	pr, assign := cholBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleDTS(pr.G, assign, 8, sched.T3D(), false, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMAPPlan(b *testing.B) {
	pr, assign := cholBench(b)
	s, err := sched.ScheduleMPO(pr.G, assign, 8, sched.T3D())
	if err != nil {
		b.Fatal(err)
	}
	capacity := s.MinMem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mem.NewPlan(s, capacity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	pr, assign := cholBench(b)
	s, err := sched.ScheduleMPO(pr.G, assign, 8, sched.T3D())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := mem.NewPlan(s, s.MinMem())
	if err != nil || !plan.Executable {
		b.Fatal("plan not executable")
	}
	tables := proto.Derive(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Simulate(s, plan, tables, sched.T3D(), machine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan cache benchmarks (inspector amortization) ---

// planCacheBench builds a BCSSTK-style structural problem (2-D grid with
// extra random couplings, RCM ordered, blocked Cholesky) — the shape of
// matrix the plan cache amortizes across repeated rapidd solves — and
// drives the owner assignment to its fixed point so every iteration
// fingerprints identically (Compile assigns owners in place).
func planCacheBench(b *testing.B) (*rapid.Program, rapid.Options) {
	b.Helper()
	rng := util.NewRNG(11)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(30, 24, true), 200, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: 8, BlockSize: 12})
	if err != nil {
		b.Fatal(err)
	}
	prog := rapid.FromGraph(pr.G)
	opt := rapid.Options{Procs: 8, Heuristic: rapid.MPO}
	if _, err := rapid.Compile(prog, opt); err != nil {
		b.Fatal(err)
	}
	return prog, opt
}

// BenchmarkCompileFresh is the uncached baseline: the full inspector phase
// (clustering, mapping, ordering, MAP planning) on every call.
func BenchmarkCompileFresh(b *testing.B) {
	prog, opt := planCacheBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rapid.Compile(prog, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCachedMemoryHit serves the plan from the in-memory LRU:
// fingerprint the input, return the resident artifact.
func BenchmarkCompileCachedMemoryHit(b *testing.B) {
	prog, opt := planCacheBench(b)
	cache := rapid.NewPlanCache(rapid.PlanCacheConfig{})
	if _, _, err := rapid.CompileCached(prog, opt, cache); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, src, err := rapid.CompileCached(prog, opt, cache)
		if err != nil || src != rapid.FromMemory {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

// BenchmarkCompileCachedDiskLoad pays the cold-start path: read the
// content-addressed file, verify the checksum, decode and validate the
// artifact (a fresh cache per iteration keeps the memory tier cold).
func BenchmarkCompileCachedDiskLoad(b *testing.B) {
	prog, opt := planCacheBench(b)
	dir := b.TempDir()
	warm := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: dir})
	if _, _, err := rapid.CompileCached(prog, opt, warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: dir})
		_, src, err := rapid.CompileCached(prog, opt, cold)
		if err != nil || src != rapid.FromDisk {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

// concurrentExecProblem builds the fixed factorization problem the
// executor benchmarks share, scheduled for p emulated processors.
func concurrentExecProblem(b *testing.B, p int) (*chol.Problem, *sched.Schedule, *mem.Plan) {
	b.Helper()
	rng := util.NewRNG(1)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 120, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: p, BlockSize: 12})
	if err != nil {
		b.Fatal(err)
	}
	assign, err := sched.OwnerComputeAssign(pr.G, p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.ScheduleMPO(pr.G, assign, p, sched.T3D())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil || !plan.Executable {
		b.Fatal("plan not executable")
	}
	return pr, s, plan
}

// BenchmarkConcurrentExec drives the wall-clock executor at several
// emulated-processor counts on one fixed factorization problem,
// structure-only (no numeric kernels): what it measures is the executor's
// own hot path — the protocol loop, message delivery, parking and waking —
// not BLAS throughput (BenchmarkConcurrentExecNumeric covers the end-to-end
// numeric run). The p ≥ 16 variants oversubscribe the physical cores on
// purpose: that regime is where an executor that burns a core per blocked
// processor collapses and an event-driven one does not, so CI gates this
// benchmark against regressions (see .github/workflows/ci.yml).
func BenchmarkConcurrentExec(b *testing.B) {
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			_, s, plan := concurrentExecProblem(b, p)
			tables := proto.Derive(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(s, plan, tables, exec.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentExecNumeric is the end-to-end variant: real kernels,
// real data movement. Kernel time dominates at low p, so executor-level
// regressions show up here damped; the structure-only benchmark above is
// the sensitive gauge.
func BenchmarkConcurrentExecNumeric(b *testing.B) {
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pr, s, plan := concurrentExecProblem(b, p)
			tables := proto.Derive(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(s, plan, tables, exec.Config{Kernel: pr.Kernel, Init: pr.InitObject}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
