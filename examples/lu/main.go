// LU example: solve an unsymmetric sparse system with the 1-D column-block
// LU-with-partial-pivoting application — the paper's second (and harder)
// evaluation code — executing concurrently under memory pressure, then
// verifying the solve.
//
// It demonstrates the DTS + slice-merging heuristic: the schedule fits a
// budget the RCP ordering cannot, while the merged slices keep the
// parallel time close to RCP's.
package main

import (
	"fmt"
	"log"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

func main() {
	const procs = 4

	rng := util.NewRNG(777)
	pattern := sparse.AddRandomUnsymLinks(sparse.Grid2D(14, 10, false), 60, rng)
	a := sparse.UnsymValues(pattern, rng)
	fmt.Printf("matrix: n=%d, nnz=%d (unsymmetric)\n", a.N, a.Nnz())

	pr, err := lu.Build(a, lu.Options{Procs: procs, BlockSize: 7})
	if err != nil {
		log.Fatal(err)
	}
	prog := rapid.FromGraph(pr.G)
	fmt.Printf("task graph: %d tasks over %d column panels\n", pr.G.NumTasks(), pr.NB)

	// How tight can memory get for each heuristic?
	fmt.Printf("\n%-10s %10s %12s\n", "heuristic", "MIN_MEM", "pred. time")
	var tot int64
	for _, h := range []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS} {
		p, err := rapid.Compile(prog, rapid.Options{Procs: procs, Heuristic: h})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v %10d %12.4g\n", h, p.MinMem(), p.PredictedTime())
		tot = p.TOT()
	}

	// Pick a budget between DTS's and RCP's needs so only the
	// memory-efficient orderings fit, then compile DTS with slice merging.
	dtsPlan, err := rapid.Compile(prog, rapid.Options{Procs: procs, Heuristic: rapid.DTS})
	if err != nil {
		log.Fatal(err)
	}
	rcpPlan, err := rapid.Compile(prog, rapid.Options{Procs: procs, Heuristic: rapid.RCP})
	if err != nil {
		log.Fatal(err)
	}
	budget := (dtsPlan.MinMem() + rcpPlan.MinMem()) / 2
	fmt.Printf("\nbudget %d units/proc (TOT %d): RCP needs %d, DTS needs %d\n",
		budget, tot, rcpPlan.MinMem(), dtsPlan.MinMem())

	merged, err := rapid.Compile(prog, rapid.Options{
		Procs:     procs,
		Heuristic: rapid.DTSMerge,
		Memory:    budget,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !merged.Executable() {
		log.Fatal("DTS+merge should fit the budget")
	}
	fmt.Printf("DTS+merge: executable, planned MAPs/proc %.2f, pred. time %.4g\n",
		merged.AvgMAPs(), merged.PredictedTime())

	report, err := rapid.Execute(prog, merged, rapid.ExecOptions{
		Kernel: pr.Kernel,
		Init:   pr.InitObject,
		BufLen: pr.BufLen,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Solve A·x = b for a known x with the factored panels and check the
	// answer.
	maxErr := pr.SolveError(report.Objects, rng)
	fmt.Printf("solve max error vs known solution: %.3g\n", maxErr)
	if maxErr > 1e-6 {
		log.Fatal("solve error too large")
	}
	fmt.Println("ok")
}
