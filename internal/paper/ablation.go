package paper

import (
	"fmt"
	"io"
	"math"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/proto"
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
// ordering at a 50% memory budget; the executable floor is found by binary
// search between MinMem and TOT.
func AblationMAPPolicy(w io.Writer, sc Scale) []AblationRowMAP {
	header(w, "Ablation: greedy allocate-ahead vs just-in-time MAP allocation (Cholesky, MPO, 50% memory)")
	fmt.Fprintf(w, "%-5s %14s %14s %12s %14s %14s\n", "P", "greedy #MAPs", "JIT #MAPs", "PT ratio", "greedy floor", "JIT floor")
	var rows []AblationRowMAP
	for _, p := range tableProcs {
		wl := cholWorkloads(sc, p)[0]
		s := buildSchedule(wl.G, p, sched.MPO, 0)
		tables := proto.Derive(s)
		tot := s.TOT()
		capacity := tot / 2
		row := AblationRowMAP{Procs: p}
		for i, jit := range []bool{false, true} {
			pl, err := mem.NewPlanOpts(s, capacity, mem.Options{JustInTime: jit})
			if err != nil {
				panic(err)
			}
			pt := math.Inf(1)
			maps := math.Inf(1)
			if pl.Executable {
				res, err := machine.Simulate(s, pl, tables, sched.T3D(), machine.Options{})
				if err != nil {
					panic(err)
				}
				pt, maps = res.ParallelTime, res.AvgMAPs
			}
			floor := executableFloor(s, mem.Options{JustInTime: jit})
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

// executableFloor binary-searches the tightest capacity at which the plan
// remains executable.
func executableFloor(s *sched.Schedule, opt mem.Options) int64 {
	lo, hi := int64(1), s.TOT()
	for lo < hi {
		mid := (lo + hi) / 2
		pl, err := mem.NewPlanOpts(s, mid, opt)
		if err != nil {
			panic(err)
		}
		if pl.Executable {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
		s := buildSchedule(wl.G, p, sched.MPO, 0)
		capacity := s.TOT() * 40 / 100
		pl, err := mem.NewPlan(s, capacity)
		if err != nil {
			panic(err)
		}
		tables := proto.Derive(s)
		row := AblationRowSlots{Procs: p}
		fmt.Fprintf(w, "P=%-3d", p)
		for _, d := range depths {
			pt := math.Inf(1)
			if pl.Executable {
				res, err := machine.Simulate(s, pl, tables, sched.T3D(), machine.Options{SlotDepth: d})
				if err != nil {
					panic(err)
				}
				pt = res.ParallelTime
			}
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
	for _, pct := range []int{5, 10, 25, 50, 100} {
		// Budget as a percentage of the volatile TOT.
		s0 := buildSchedule(wl.G, p, sched.DTS, 0)
		volTot := s0.TOT()
		budget := volTot * int64(pct) / 100
		s := buildSchedule(wl.G, p, sched.DTSMerge, budget)
		pl, err := mem.NewPlan(s, s.TOT())
		if err != nil {
			panic(err)
		}
		res, err := machine.Simulate(s, pl, proto.Derive(s), sched.T3D(), machine.Options{})
		if err != nil {
			panic(err)
		}
		row := AblationRowMerge{BudgetPct: pct, Slices: s.NumSlices, PT: res.ParallelTime}
		rows = append(rows, row)
		fmt.Fprintf(w, "%9d%% %8d %12.4g\n", pct, row.Slices, row.PT)
	}
	return rows
}
