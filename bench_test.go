package repro_test

// The five executor benchmarks, the serve-shape ruler, the inspector,
// verifier and decoder benchmarks and the daemon's hot and cold requests
// CI's benchstat step gates, and the allocation and live-byte ceilings of
// the same paths.
// Everything else that used to live here is a cmd/paper experiment
// (byte-gated by TestPaperSmallGolden) or a per-layer metric of bench/
// (BENCHMARK.json).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/factor"
	"repro/internal/rapidd"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// benchMatrix is the fixed matrix the benchmarks here share — a 24×18
// nine-point grid with 120 extra couplings, SPD values, RCM-ordered —
// unchanged since the gate was introduced so base and head always time the
// same work.
func benchMatrix() *sparse.Matrix {
	rng := util.NewRNG(1)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 120, rng)
	return sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
}

// inspect is the inspector, matrix to first task: kind's factorization of m
// cut into blocks (chol) or panels (lu) of the given size, compiled for
// opt.Procs emulated processors at memPct % of TOT (0: full memory),
// protocol tables derived.
func inspect(b testing.TB, kind string, m *sparse.Matrix, block int, opt rapid.Options, memPct int) (*factor.Problem, *rapid.Plan) {
	b.Helper()
	pb, err := factor.Build(kind, m, opt.Procs, block)
	if err != nil {
		b.Fatal(err)
	}
	if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, memPct); err != nil {
		b.Fatal(err)
	}
	plan, err := rapid.Compile(pb.Program, opt)
	if err != nil || !plan.Executable() {
		b.Fatalf("plan not executable at %d%% of TOT: %v", memPct, err)
	}
	plan.Tables() // derived once per plan, not per run
	return pb, plan
}

// timeExec times rapid.Execute of the compiled problem.
func timeExec(b *testing.B, pb *factor.Problem, plan *rapid.Plan, opt rapid.ExecOptions) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rapid.Execute(pb.Program, plan, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExec runs the full-memory benchmarks: block 12, MPO.
func benchExec(b *testing.B, numeric bool) {
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pb, plan := inspect(b, "chol", benchMatrix(), 12, rapid.Options{Procs: p, Heuristic: rapid.MPO}, 0)
			var opt rapid.ExecOptions
			if numeric {
				opt = pb.Exec
			}
			timeExec(b, pb, plan, opt)
		})
	}
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
func BenchmarkConcurrentExec(b *testing.B) { benchExec(b, false) }

// BenchmarkConcurrentExecNumeric is the end-to-end variant: real kernels,
// real data movement. Kernel time dominates at low p, so executor-level
// regressions show up here damped; the structure-only benchmark above is
// the sensitive gauge.
func BenchmarkConcurrentExecNumeric(b *testing.B) { benchExec(b, true) }

// BenchmarkConcurrentExecConstrained is the paper's regime, which the two
// benchmarks above never enter: at full memory a processor runs one MAP and
// its suspended-send queue stays shallow, so a cost that grows with queue
// depth or with the number of MAPs passes them unseen. Here the same matrix
// is cut at block 6 (16 617 tasks, 2 620 messages) and compiled with
// DTSMerge at 40 % of TOT for 4 processors — 3–6 MAPs and 100–135 suspended
// sends per processor — and run structure-only, so the time is the
// protocol's.
func BenchmarkConcurrentExecConstrained(b *testing.B) {
	pb, plan := inspect(b, "chol", benchMatrix(), 6, rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge}, 40)
	timeExec(b, pb, plan, rapid.ExecOptions{})
}

// BenchmarkExecuteServeShape is the execute of bench/'s serve_hot request
// — chol n=400 cut into 8×8 blocks, MPO, 4 processors, full memory — with
// two Executes of the one plan running at once, as rapidd's workers run
// them. The benchmarks above run one execute at a time on smaller blocks,
// so what two concurrent runs cost each other (the allocator and the
// collector they share, first of all) shows only here; allocs/op is per
// pair of runs. Each result is released once it is read, as rapidd does.
func BenchmarkExecuteServeShape(b *testing.B) {
	a, err := factor.Matrix("chol", 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	pb, plan := inspect(b, "chol", a, 8, rapid.Options{Procs: 4, Heuristic: rapid.MPO}, 0)
	var errs [2]error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var rep *rapid.Report
				if rep, errs[k] = rapid.Execute(pb.Program, plan, pb.Exec); rep != nil {
					rep.Release()
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecuteLU is the execute of bench/'s factor_lu workload — lu
// n=1496 cut into panels of 16, MPO, 4 processors, full memory — the one
// gated run whose time is the kernels' (blas is over 90 % of it), where an
// LU kernel change shows end to end. Each result is released once it is
// read, as rapidd releases it.
func BenchmarkExecuteLU(b *testing.B) {
	a, err := factor.Matrix("lu", 1496, 1)
	if err != nil {
		b.Fatal(err)
	}
	pb, plan := inspect(b, "lu", a, 16, rapid.Options{Procs: 4, Heuristic: rapid.MPO}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rapid.Execute(pb.Program, plan, pb.Exec)
		if err != nil {
			b.Fatal(err)
		}
		rep.Release()
	}
}

// cpuTime is the CPU time, user and system, the process has used so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkServeSpeedup is the ruler of the inspector/executor split at
// bench/'s two served shapes, chol at block 8 on 4 processors, MPO, full
// memory: n=400 (serve_hot) and n=120 (serve_durable). Each iteration runs
// the sequential factor, then one Execute of the compiled plan, and the
// benchmark reports the ratio of their wall times (speedup), of their CPU
// times (cpu_ratio: what the parallel run burns per unit of sequential
// work) and the bytes each allocates (seq-B/op, exec-B/op). B/op is the
// pair's. The execute's result is released, as rapidd releases it once the
// residual is read.
func BenchmarkServeSpeedup(b *testing.B) {
	for _, sh := range []struct {
		name string
		n    int
	}{{"serve_hot", 400}, {"serve_durable", 120}} {
		b.Run(sh.name, func(b *testing.B) {
			a, err := factor.Matrix("chol", sh.n, 1)
			if err != nil {
				b.Fatal(err)
			}
			pb, plan := inspect(b, "chol", a, 8, rapid.Options{Procs: 4, Heuristic: rapid.MPO}, 0)
			var wall, cpu [2]time.Duration
			var bytes [2]uint64
			var ms runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range wall {
					runtime.ReadMemStats(&ms)
					a0, c0, t0 := ms.TotalAlloc, cpuTime(b), time.Now()
					if k == 0 {
						_, err = pb.Sequential()
					} else {
						var rep *rapid.Report
						if rep, err = rapid.Execute(pb.Program, plan, pb.Exec); rep != nil {
							rep.Release()
						}
					}
					wall[k] += time.Since(t0)
					cpu[k] += cpuTime(b) - c0
					if err != nil {
						b.Fatal(err)
					}
					runtime.ReadMemStats(&ms)
					bytes[k] += ms.TotalAlloc - a0
				}
			}
			b.ReportMetric(float64(wall[0])/float64(wall[1]), "speedup")
			b.ReportMetric(float64(cpu[1])/float64(cpu[0]), "cpu_ratio")
			b.ReportMetric(float64(bytes[0])/float64(b.N), "seq-B/op")
			b.ReportMetric(float64(bytes[1])/float64(b.N), "exec-B/op")
		})
	}
}

// TestInspectorAllocsPerTask: from the matrix to the protocol tables the
// inspector keeps its working state in tables indexed by task, object or
// (processor, object) id, sized from counts it knows before it fills them
// (DESIGN.md §7), so what it allocates grows with the number of tables, not
// of tasks. One allocation per task anywhere on the path would read 1.0
// here.
func TestInspectorAllocsPerTask(t *testing.T) {
	m := benchMatrix()
	opt := rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge}
	pb, _ := inspect(t, "chol", m, 6, opt, 40)
	tasks := float64(pb.Program.G.NumTasks())
	allocs := testing.AllocsPerRun(5, func() { inspect(t, "chol", m, 6, opt, 40) })
	if perTask := allocs / tasks; perTask > 0.5 {
		t.Fatalf("inspector: %.0f allocations for %.0f tasks, %.2f per task; want at most 0.5", allocs, tasks, perTask)
	}
}

// BenchmarkInspect is everything before the first task of the constrained
// problem above: build the task graph from the matrix, resolve 40 % of TOT,
// schedule with DTSMerge, plan the MAPs and derive the protocol tables. The
// paper's inspector/executor split pays off only while this stays within a
// small multiple of one execution.
func BenchmarkInspect(b *testing.B) {
	m := benchMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inspect(b, "chol", m, 6, rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge}, 40)
	}
}

// factorCholPlan is bench/'s factor_chol shape: the (chol, 1496, seed 1)
// matrix cut into 12×12 blocks, compiled with DTS+merge at 40 % of TOT for
// 4 processors.
func factorCholPlan(tb testing.TB) *rapid.Plan {
	a, err := factor.Matrix("chol", 1496, 1)
	if err != nil {
		tb.Fatal(err)
	}
	_, plan := inspect(tb, "chol", a, 12, rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge}, 40)
	return plan
}

// TestVerifyAllocsPerTask: the static verifier keeps its tables the way the
// inspector does (DESIGN.md §8, "The verifier's tables") and formats text
// only for a finding, so verifying a clean plan allocates per table, not
// per task.
func TestVerifyAllocsPerTask(t *testing.T) {
	plan := factorCholPlan(t)
	tasks := float64(plan.Schedule.G.NumTasks())
	allocs := testing.AllocsPerRun(3, func() {
		if err := rapid.VerifyPlan(plan).Err(); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / tasks; perTask > 0.5 {
		t.Fatalf("verify: %.0f allocations for %.0f tasks, %.2f per task; want at most 0.5", allocs, tasks, perTask)
	}
}

// BenchmarkVerify is the static verifier on the factor_chol plan: every
// compile miss and every disk load of a plan pays it.
func BenchmarkVerify(b *testing.B) {
	plan := factorCholPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rapid.VerifyPlan(plan).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolve times one rapidd request per iteration, handed to the
// daemon's handler in process — no listener, no socket — and waited for:
// decode, queue, resolve the problem and its plan, admit, execute, record.
// The shape is bench/'s serve_hot and serve_cold: chol n=400 on 4
// processors. next names iteration i's spec; every job must report
// planSource.
func benchSolve(b *testing.B, planSource string, next func(i int) rapidd.JobSpec) {
	srv, err := rapidd.Open(rapidd.Config{CacheMemBudget: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain(context.Background())
	solve := func(spec rapidd.JobSpec) rapidd.Job {
		body, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve?wait=1", bytes.NewReader(body)))
		var job rapidd.Job
		if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil || job.Status != rapidd.StatusDone {
			b.Fatalf("solve: HTTP %d, job %+v (%v)", w.Code, job, err)
		}
		return job
	}
	solve(next(0)) // untimed: the first sight of the hot key compiles it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if job := solve(next(i)); job.PlanSource != planSource {
			b.Fatalf("job %s plan_source %q, want %q", job.ID, job.PlanSource, planSource)
		}
	}
}

// BenchmarkSolveHot is a request whose problem and plan the daemon
// already holds: it should cost one execute and little else (DESIGN.md §9,
// "The request path").
func BenchmarkSolveHot(b *testing.B) {
	benchSolve(b, "memory", func(int) rapidd.JobSpec { return rapidd.JobSpec{N: 400, Seed: 1} })
}

// BenchmarkSolveCold is a request for a structure never seen: generate,
// build, fingerprint, compile, verify, then the same execute.
func BenchmarkSolveCold(b *testing.B) {
	benchSolve(b, "compiled", func(i int) rapidd.JobSpec { return rapidd.JobSpec{N: 400, Seed: uint64(1 + i)} })
}

// factorCholBytes is the factor_chol plan, marshaled.
func factorCholBytes(tb testing.TB) (*rapid.Plan, []byte) {
	plan := factorCholPlan(tb)
	enc, err := rapid.MarshalPlan(plan)
	if err != nil {
		tb.Fatal(err)
	}
	return plan, enc
}

// TestDecodeAllocsPerTask: the decoder reads every task's name and access
// lists into the task graph's tables (DESIGN.md §7, "The inspector's
// tables"), so loading a plan from disk allocates per table, not per task.
// Object names keep one allocation each.
func TestDecodeAllocsPerTask(t *testing.T) {
	plan, enc := factorCholBytes(t)
	tasks := float64(plan.Schedule.G.NumTasks())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := rapid.UnmarshalPlan(enc); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / tasks; perTask > 0.1 {
		t.Fatalf("decode: %.0f allocations for %.0f tasks, %.3f per task; want at most 0.1", allocs, tasks, perTask)
	}
}

// BenchmarkUnmarshalPlan decodes the factor_chol plan: what a disk-tier
// load pays before the verifier.
func BenchmarkUnmarshalPlan(b *testing.B) {
	_, enc := factorCholBytes(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rapid.UnmarshalPlan(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanTierEntryBytes: what one entry of rapidd's plan tier keeps live
// at the serve shape (chol n=400, block 8, 4 processors, MPO) — the
// problem with its plan's task graph adopted, the plan and its protocol
// tables. The task graph is a few flat tables (DESIGN.md §7), so an entry
// stays within 900 kB.
func TestPlanTierEntryBytes(t *testing.T) {
	type entry struct {
		pb   *factor.Problem
		plan *rapid.Plan
	}
	const n = 40
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	entries := make([]entry, 0, n)
	before := live()
	for seed := uint64(1); seed <= n; seed++ {
		a, err := factor.Matrix("chol", 400, seed)
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
		pb.Adopt(plan)
		plan.Tables()
		entries = append(entries, entry{pb, plan})
	}
	perEntry := (float64(live()) - float64(before)) / n / 1000
	runtime.KeepAlive(entries)
	t.Logf("%.0f kB live per entry", perEntry)
	if perEntry > 900 {
		t.Fatalf("plan tier: %.0f kB live per entry; want at most 900", perEntry)
	}
}
