package paper

import (
	"fmt"
	"io"
	"math"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
)

// AblationRowMAP is one row of the MAP-policy ablation.
type AblationRowMAP struct {
	Procs                 int
	GreedyMAPs, JITMAPs   float64
	GreedyPT, JITPT       float64
	GreedyFloor, JITFloor int64 // tightest executable capacity found
}

// AblationMAPPolicy compares the paper's greedy allocate-ahead MAP policy
// against a just-in-time variant (DESIGN.md §5): greedy notifies addresses
// early (enabling data presending, fewer MAPs) but holds space for future
// objects; just-in-time admits tighter memory budgets at the cost of more
// MAPs and later notification. Measured on the Cholesky workload with MPO
// ordering at a 50% memory budget; the executable floor is
// mem.ExecutableFloor's binary search between 1 and TOT.
func AblationMAPPolicy(w io.Writer, sc Scale) []AblationRowMAP {
	header(w, "Ablation: greedy allocate-ahead vs just-in-time MAP allocation (Cholesky, MPO, 50% memory)")
	fmt.Fprintf(w, "%-5s %14s %14s %12s %14s %14s\n", "P", "greedy #MAPs", "JIT #MAPs", "PT ratio", "greedy floor", "JIT floor")
	var rows []AblationRowMAP
	for _, p := range tableProcs {
		wl := cholWorkloads(sc, p)[0]
		a := compile(wl.G, p, sched.MPO, 0)
		capacity := a.TOT() / 2
		row := AblationRowMAP{Procs: p}
		for i, jit := range []bool{false, true} {
			opt := mem.Options{JustInTime: jit}
			pl := must(mem.NewPlanOpts(a.Schedule, capacity, opt))
			pt, maps, _ := simulate(&plan.Artifact{Schedule: a.Schedule, Mem: pl, Model: a.Model, Capacity: capacity}, machine.Options{})
			floor := must(mem.ExecutableFloor(a.Schedule, opt))
			if i == 0 {
				row.GreedyMAPs, row.GreedyPT, row.GreedyFloor = maps, pt, floor
			} else {
				row.JITMAPs, row.JITPT, row.JITFloor = maps, pt, floor
			}
		}
		rows = append(rows, row)
		ratio := row.JITPT / row.GreedyPT
		fmt.Fprintf(w, "P=%-3d %14s %14s %12.3f %14d %14d\n",
			p, fmtMAPs(row.GreedyMAPs), fmtMAPs(row.JITMAPs), ratio, row.GreedyFloor, row.JITFloor)
	}
	return rows
}

// AblationRowSlots is one row of the address-buffer-depth ablation.
type AblationRowSlots struct {
	Procs int
	PT    []float64 // indexed by depth 1, 2, 4
}

// AblationSlotDepth measures the cost of the paper's single-slot address
// buffers: deeper buffers let a consumer's MAP return before every peer has
// consumed its previous package. Measured on the Cholesky workload with MPO
// ordering at a 40% memory budget.
func AblationSlotDepth(w io.Writer, sc Scale) []AblationRowSlots {
	depths := []int{1, 2, 4}
	header(w, "Ablation: address-buffer depth (Cholesky, MPO, 40% memory)")
	fmt.Fprintf(w, "%-5s", "P")
	for _, d := range depths {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("PT depth=%d", d))
	}
	fmt.Fprintln(w)
	var rows []AblationRowSlots
	for _, p := range tableProcs {
		wl := cholWorkloads(sc, p)[0]
		a := compile(wl.G, p, sched.MPO, 0)
		a = replan(a, a.TOT()*40/100)
		row := AblationRowSlots{Procs: p}
		fmt.Fprintf(w, "P=%-3d", p)
		for _, d := range depths {
			pt, _, _ := simulate(a, machine.Options{SlotDepth: d})
			row.PT = append(row.PT, pt)
			if math.IsInf(pt, 0) {
				fmt.Fprintf(w, " %14s", "inf")
			} else {
				fmt.Fprintf(w, " %14.4g", pt)
			}
		}
		fmt.Fprintln(w)
		rows = append(rows, row)
	}
	return rows
}

// AblationRowMerge is one row of the slice-merge budget sweep.
type AblationRowMerge struct {
	BudgetPct int
	Slices    int
	PT        float64
}

// AblationMergeSweep sweeps the DTS slice-merging budget from tight to
// loose on the LU workload at p=16 and reports how the slice count and the
// parallel time respond: the time recovered by merging is the content of
// Table 7.
func AblationMergeSweep(w io.Writer, sc Scale) []AblationRowMerge {
	header(w, "Ablation: DTS slice-merge budget sweep (LU, p=16)")
	const p = 16
	wl := luWorkloads(sc, p)[0]
	fmt.Fprintf(w, "%-10s %8s %12s\n", "budget", "slices", "PT")
	var rows []AblationRowMerge
	// Budgets are percentages of the volatile TOT, which depends on the
	// mapping only, not on the order.
	assign := must(sched.OwnerComputeAssign(wl.G, p))
	volTot := (&sched.Schedule{G: wl.G, P: p, Assign: assign}).TOT()
	for _, pct := range []int{5, 10, 25, 50, 100} {
		s := must(sched.ScheduleWith(sched.DTSMerge, wl.G, assign, p, sched.T3D(), volTot*int64(pct)/100))
		pt, _, _ := simulate(must(plan.New(s, sched.T3D(), s.TOT())), machine.Options{})
		row := AblationRowMerge{BudgetPct: pct, Slices: s.NumSlices, PT: pt}
		rows = append(rows, row)
		fmt.Fprintf(w, "%9d%% %8d %12.4g\n", pct, row.Slices, row.PT)
	}
	return rows
}
