package repro_test

// The two executor benchmarks CI's benchstat step gates. Everything else
// that used to live here is a cmd/paper experiment (byte-gated by
// TestPaperSmallGolden) or a per-layer metric of bench/ (BENCHMARK.json).

import (
	"fmt"
	"testing"

	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// concurrentExecProblem builds the fixed factorization problem the
// executor benchmarks share — a 24×18 nine-point grid with 120 extra
// couplings, block 12, unchanged since the gate was introduced so base and
// head always time the same work — compiled with MPO at full memory for p
// emulated processors.
func concurrentExecProblem(b *testing.B, p int) (*factor.Problem, *rapid.Plan) {
	b.Helper()
	rng := util.NewRNG(1)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 120, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pb, err := factor.Build("chol", m, p, 12)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := rapid.Compile(pb.Program, rapid.Options{Procs: p, Heuristic: rapid.MPO})
	if err != nil || !plan.Executable() {
		b.Fatalf("plan not executable: %v", err)
	}
	return pb, plan
}

func benchExec(b *testing.B, numeric bool) {
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pb, plan := concurrentExecProblem(b, p)
			var opt rapid.ExecOptions
			if numeric {
				opt = pb.Exec
			}
			plan.Tables() // derived once per plan, not per run
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rapid.Execute(pb.Program, plan, opt); err != nil {
					b.Fatal(err)
				}
			}
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
