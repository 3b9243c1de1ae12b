package rapidd

import (
	"context"
	"testing"

	"repro/rapid"
)

// benchPlan compiles the daemon's default job (chol n=120, 4 procs, MPO)
// exactly as solve() would, so the verifier benchmark measures the plan
// shape the serve path actually gates on.
func benchPlan(b *testing.B) *rapid.Plan {
	b.Helper()
	pb, err := buildProblem(JobSpec{Kind: "chol", N: 120, Seed: 1, Procs: 4, Block: 8, Heuristic: "mpo"})
	if err != nil {
		b.Fatal(err)
	}
	h, _ := parseHeuristic("mpo")
	plan, err := rapid.Compile(pb.prog, rapid.Options{Procs: 4, Heuristic: h})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkVerifyPlan measures the static verifier alone — the cost solve()
// adds to every request, including memory-tier cache hits.
func BenchmarkVerifyPlan(b *testing.B) {
	plan := benchPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := rapid.VerifyPlan(plan); !res.OK() {
			b.Fatal(res.Err())
		}
	}
}

// BenchmarkCachedServe measures the full serve path for a job whose plan is
// already in the memory cache tier: plan fetch, static verification,
// admission bookkeeping and execution. Together with BenchmarkVerifyPlan
// this bounds the verification overhead on the cached serve path
// (EXPERIMENTS.md records the ratio).
func BenchmarkCachedServe(b *testing.B) {
	srv := New(Config{})
	spec := JobSpec{Kind: "chol", N: 120, Seed: 1, Procs: 4, Block: 8, Heuristic: "mpo"}
	// attempt() updates the job's record; one job takes every attempt (it
	// turns running on the first and stays so).
	j := srv.newJob(Job{ID: "bench", Spec: spec}, false)
	// Warm the cache so every timed iteration is a memory-tier hit.
	if err := srv.attempt(context.Background(), j, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.attempt(context.Background(), j, 0); err != nil {
			b.Fatal(err)
		}
	}
}
