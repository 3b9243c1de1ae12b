// Cholesky example: factor a sparse SPD finite-element matrix with the
// 2-D block Cholesky application on an emulated 4-processor machine, under
// a 60% memory budget, and verify the factorization numerically.
//
// This is the paper's first evaluation application end to end: symbolic
// factorization, block task-graph extraction, 2-D cyclic mapping, MPO
// ordering, MAP planning, concurrent execution with real dense kernels, and
// a residual check of ‖A − L·Lᵀ‖_F / ‖A‖_F.
package main

import (
	"fmt"
	"log"

	"repro/internal/chol"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

func main() {
	const procs = 4

	// A 2-D nine-point grid with irregular extra couplings, RCM-ordered,
	// with SPD values.
	rng := util.NewRNG(2026)
	pattern := sparse.AddRandomSymLinks(sparse.Grid2D(16, 12, true), 40, rng)
	pattern = pattern.PermuteSym(sparse.RCM(pattern))
	a := sparse.SPDValues(pattern, rng)
	fmt.Printf("matrix: n=%d, nnz=%d\n", a.N, a.Nnz())

	pr, err := chol.Build(a, chol.Options{Procs: procs, BlockSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	prog := rapid.FromGraph(pr.G)
	fmt.Printf("task graph: %d tasks, %d block objects, %d edges\n",
		pr.G.NumTasks(), pr.G.NumObjects(), pr.G.NumEdges())

	// Compile with full memory first to learn the no-recycling requirement.
	free, err := rapid.Compile(prog, rapid.Options{Procs: procs, Heuristic: rapid.MPO})
	if err != nil {
		log.Fatal(err)
	}
	budget := free.TOT() * 60 / 100
	if budget < free.MinMem() {
		budget = free.MinMem()
	}
	plan, err := rapid.Compile(prog, rapid.Options{
		Procs:     procs,
		Heuristic: rapid.MPO,
		Memory:    budget,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory: TOT=%d units, budget=%d (%.0f%%), MIN_MEM=%d, planned MAPs/proc=%.2f\n",
		free.TOT(), budget, 100*float64(budget)/float64(free.TOT()), plan.MinMem(), plan.AvgMAPs())
	if !plan.Executable() {
		log.Fatal("schedule not executable under the budget")
	}

	report, err := rapid.Execute(prog, plan, rapid.ExecOptions{
		Kernel: pr.Kernel,
		Init:   pr.InitObject,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: MAPs per proc %v, peak units %v\n", report.MAPsPerProc, report.PeakUnits)

	// Residual check against the input matrix.
	res := pr.Residual(report.Objects)
	fmt.Printf("relative residual ‖A−LLᵀ‖/‖A‖ = %.3g\n", res)
	if res > 1e-10 {
		log.Fatal("residual too large")
	}

	// Timing on the simulated Cray-T3D.
	sim, err := rapid.Simulate(prog, plan, rapid.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	base, err := rapid.Simulate(prog, free, rapid.SimOptions{Baseline: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated T3D time: %.4g s (baseline %.4g s, +%.1f%% for 40%% memory saved)\n",
		sim.ParallelTime, base.ParallelTime, 100*(sim.ParallelTime/base.ParallelTime-1))
}
