// Command rapidsolve is an end-to-end demonstration binary: it generates a
// sparse linear system, factors it through the full pipeline (symbolic
// analysis → task graph → scheduling → memory planning → concurrent
// execution under the active-memory-management protocol) and solves it,
// reporting memory statistics and the verification residual.
//
// Usage:
//
//	rapidsolve [-kind chol|lu] [-n 300] [-procs 4] [-block 8]
//	           [-heuristic rcp|mpo|dts|dtsmerge|treemem] [-mem 60]
//	           [-file matrix.mtx] [-verify] [-exact]
//	           [-drop 0.25] [-dup 0.1] [-addrdelay 0.3] [-datadelay 0.3]
//	           [-faultseed 1]
//
// -n is the approximate matrix order (ignored when -file loads a
// MatrixMarket matrix); -mem the memory budget as a percentage of the
// no-recycling requirement. -verify runs the static plan verifier
// (internal/verify) on the compiled plan before execution: on findings the
// table is printed to stderr and the process exits non-zero without
// executing. -exact additionally runs the branch-and-bound reference
// solver (internal/sched/exact) on instances of at most 20 tasks and
// reports the compiled schedule's (time, memory) optimality gap against
// the true Pareto frontier. The -drop/-dup/-addrdelay/-datadelay flags
// inject deterministic message faults (loss, duplication, delay) selected
// by -faultseed; the engine's reliability layer must absorb them, the
// residual must be unchanged, and the per-processor retransmit/dedup
// counters are printed as a reliability table.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/factor"
	"repro/internal/sched"
	"repro/internal/sched/exact"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/rapid"
)

// stateTable renders the executor's per-processor protocol-state occupancy
// (wall-clock seconds in each of REC/EXE/SND/MAP/END) as a text table.
func stateTable(report *rapid.Report) string {
	rows := make([][]float64, len(report.Occupancy))
	for p, occ := range report.Occupancy {
		rows[p] = occ[:]
	}
	heads := rapid.StateNames()
	for i := range heads {
		heads[i] += "(s)"
	}
	return trace.Table(heads, rows, ".4g")
}

// reliabilityTable renders the per-processor ack/retransmit counters of the
// engine's reliability layer as a text table.
func reliabilityTable(report *rapid.Report) string {
	rows := make([][]int64, len(report.Reliability))
	for p, r := range report.Reliability {
		rows[p] = []int64{int64(r.Retransmits), int64(r.Dropped), int64(r.DupsSent), int64(r.DupDropped), int64(r.Acked)}
	}
	return trace.Table([]string{"retrans", "dropped", "dups-sent", "dups-rcvd", "acked"}, rows, "d")
}

func main() {
	kindFlag := flag.String("kind", "chol", "factorization: chol or lu")
	n := flag.Int("n", 300, "approximate matrix order")
	procs := flag.Int("procs", 4, "virtual processors")
	block := flag.Int("block", 8, "block / panel size")
	heur := flag.String("heuristic", "mpo", "ordering: rcp, mpo, dts, dtsmerge, treemem")
	doExact := flag.Bool("exact", false, "solve the exact (makespan, MIN_MEM) Pareto frontier (branch and bound; instances of at most 20 tasks) and report the schedule's optimality gap")
	memPct := flag.Int("mem", 60, "memory budget, percent of the no-recycling requirement")
	seed := flag.Uint64("seed", 1, "matrix generator seed")
	file := flag.String("file", "", "load a MatrixMarket matrix instead of generating one")
	drop := flag.Float64("drop", 0, "fault injection: fraction of transmissions lost in transit (retransmitted by the reliability layer)")
	dup := flag.Float64("dup", 0, "fault injection: fraction of deliveries duplicated (discarded by receiver dedup)")
	addrDelay := flag.Float64("addrdelay", 0, "fault injection: fraction of address packages delayed one round")
	dataDelay := flag.Float64("datadelay", 0, "fault injection: fraction of data messages forced through the suspended-send queue")
	faultSeed := flag.Uint64("faultseed", 1, "fault injection seed (deterministic fault plan)")
	doVerify := flag.Bool("verify", false, "statically verify the compiled plan; on findings, print the table to stderr and exit non-zero without executing")
	flag.Parse()
	verifyPlans = *doVerify
	exactFrontier = *doExact
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "rapidsolve: %v\n", err)
		os.Exit(2)
	}

	h, err := sched.ParseHeuristic(*heur)
	if err != nil {
		usage(err)
	}
	kind := strings.ToLower(*kindFlag)
	if !slices.Contains(factor.Kinds, kind) {
		usage(fmt.Errorf("unknown kind %q", *kindFlag))
	}
	var a *sparse.Matrix
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		a, err = sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: n=%d nnz=%d\n", *file, a.N, a.Nnz())
	} else if a, err = factor.Matrix(kind, *n, *seed); err != nil {
		usage(err)
	}

	pb, err := factor.Build(kind, a, *procs, *block)
	if err != nil {
		log.Fatal(err)
	}
	prog := pb.Program
	fmt.Printf("%s: n=%d nnz=%d procs=%d block=%d\n", pb.Title, a.N, a.Nnz(), *procs, *block)
	fmt.Printf("graph:    %d tasks, %d objects\n", prog.G.NumTasks(), prog.G.NumObjects())
	plan := compile(prog, *procs, h, *memPct)
	execOpt := pb.Exec
	execOpt.Faults = rapid.Faults{
		Seed:     *faultSeed,
		AddrFrac: *addrDelay,
		DataFrac: *dataDelay,
		DropFrac: *drop,
		DupFrac:  *dup,
	}
	report, err := rapid.Execute(prog, plan, execOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: MAPs %v, %d messages, %d address packages\n",
		report.MAPsPerProc, report.Messages, report.AddrPackages)
	fmt.Printf("protocol state occupancy:\n%s", stateTable(report))
	if execOpt.Faults.Enabled() {
		fmt.Printf("reliability (injected faults, seed %d):\n%s", execOpt.Faults.Seed, reliabilityTable(report))
	}
	fmt.Printf("residual: %s = %.3g\n", pb.Check, pb.Residual(report.Objects, *seed))
}

// verifyPlans mirrors the -verify flag: compiled plans are statically
// verified and a defective one aborts the run before execution.
var verifyPlans bool

// exactFrontier mirrors the -exact flag: the branch-and-bound reference
// solver computes the true (makespan, MIN_MEM) Pareto frontier and the
// compiled schedule's optimality gap is reported.
var exactFrontier bool

// reportExact solves the instance exactly and prints the frontier and the
// compiled schedule's gap against it. Instances above the solver's task cap
// abort with a hint to shrink -n.
func reportExact(plan *rapid.Plan) {
	s := plan.Schedule
	res, err := exact.Frontier(s.G, s.Assign, s.P, plan.Model, exact.Options{})
	if err != nil {
		log.Fatalf("exact solve: %v (use a smaller -n/-block so the graph has at most 20 tasks)", err)
	}
	if !res.Complete {
		log.Fatalf("exact solve: node budget exhausted after %d nodes; frontier would be unsound", res.Nodes)
	}
	fmt.Printf("exact:    frontier of %d point(s) in %d nodes:", len(res.Frontier), res.Nodes)
	for _, pt := range res.Frontier {
		fmt.Printf(" (time %.4g, mem %d)", pt.Makespan, pt.MinMem)
	}
	fmt.Println()
	if gt, ok := res.GapTime(s.Makespan, s.MinMem()); ok {
		fmt.Printf("exact:    time gap %.4gx at this memory", gt)
	} else {
		fmt.Printf("exact:    no frontier point within this schedule's memory")
	}
	if gm, ok := res.GapMem(s.MinMem()); ok {
		fmt.Printf(", memory gap %.4gx over the instance optimum %d\n", gm, res.BestMem())
	} else {
		fmt.Println()
	}
}

func compile(prog *rapid.Program, procs int, h rapid.Heuristic, memPct int) *rapid.Plan {
	opt := rapid.Options{Procs: procs, Heuristic: h}
	budget, tot, err := rapid.MemoryPercent(prog, opt, memPct)
	if err != nil {
		log.Fatal(err)
	}
	opt.Memory = budget
	plan, err := rapid.Compile(prog, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %v, predicted time %.4gs\n", h, plan.PredictedTime())
	fmt.Printf("memory:   TOT=%d units, budget=%d (%d%%), MIN_MEM=%d\n",
		tot, budget, memPct, plan.MinMem())
	if !plan.Executable() {
		log.Fatalf("schedule is NOT executable under %d%% memory; try -heuristic dtsmerge or a larger -mem", memPct)
	}
	fmt.Printf("plan:     %.2f MAPs/processor\n", plan.AvgMAPs())
	if verifyPlans {
		res := rapid.VerifyPlan(plan)
		if !res.OK() {
			fmt.Fprintf(os.Stderr, "plan failed static verification (%d findings, %d checks):\n", len(res.Findings), res.Checks)
			cols, rows := res.Rows()
			fmt.Fprint(os.Stderr, trace.Grid(cols, rows))
			os.Exit(1)
		}
		fmt.Printf("verified: %d static checks passed, replayed peaks %v\n", res.Checks, res.Peaks)
	}
	if exactFrontier {
		reportExact(plan)
	}
	return plan
}
