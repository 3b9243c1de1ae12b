package paper

import (
	"fmt"
	"io"
	"math"

	"repro/internal/sched"
)

// Table1Row is one column of the paper's Table 1.
type Table1Row struct {
	Procs int
	Ratio float64 // average per-processor memory over S1/p, no recycling
}

// Table1 reproduces Table 1: the average ratio of per-processor memory use
// (permanent + all volatile objects, never recycled — the original RAPID
// allocation strategy) over the lower bound S1/p, for sparse Cholesky under
// RCP ordering.
func Table1(w io.Writer, sc Scale) []Table1Row {
	header(w, "Table 1: per-processor memory over S1/p, sparse Cholesky, no recycling")
	fmt.Fprintf(w, "%-12s %8s\n", "#processors", "ratio")
	var rows []Table1Row
	for _, p := range []int{2, 4, 8, 16} {
		sum, count := 0.0, 0
		for _, wl := range cholWorkloads(sc, p) {
			s := buildSchedule(wl.G, p, sched.RCP, 0)
			perm := s.PermSize()
			vol := s.VolatileObjects()
			s1 := float64(wl.G.SeqSpace())
			for q := 0; q < p; q++ {
				used := float64(perm[q])
				for _, o := range vol[q] {
					used += float64(wl.G.Objects[o].Size)
				}
				sum += used / (s1 / float64(p))
				count++
			}
		}
		r := Table1Row{Procs: p, Ratio: sum / float64(count)}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-12d %8.2f\n", r.Procs, r.Ratio)
	}
	return rows
}

// OverheadRow is one row of Tables 2 and 3.
type OverheadRow struct {
	Procs int
	// PTIncrease[i] and MAPs[i] correspond to memPercents[i]; +Inf marks a
	// non-executable configuration.
	PTIncrease []float64
	MAPs       []float64
}

// overheadTable is the shared implementation of Tables 2 and 3: the cost of
// the run-time memory management scheme under shrinking memory, for RCP
// schedules. The comparison base is the parallel time of the same schedule
// with 100% memory and no memory-managing overhead (the original RAPID).
func overheadTable(w io.Writer, title string, workloads func(Scale, int) []Workload, sc Scale) []OverheadRow {
	header(w, title)
	fmt.Fprintf(w, "%-5s", "P")
	for _, pct := range memPercents {
		fmt.Fprintf(w, " | %7s PT-incr  #MAPs", fmt.Sprintf("%d%%", pct))
	}
	fmt.Fprintln(w)
	var rows []OverheadRow
	for _, p := range tableProcs {
		row := OverheadRow{Procs: p, PTIncrease: make([]float64, len(memPercents)), MAPs: make([]float64, len(memPercents))}
		wls := workloads(sc, p)
		// Average the ratios over the workloads, matrix by matrix.
		for i := range memPercents {
			row.PTIncrease[i] = 0
			row.MAPs[i] = 0
		}
		for _, wl := range wls {
			s := buildSchedule(wl.G, p, sched.RCP, 0)
			tot := s.TOT()
			basePT, _, ok := simulate(s, tot, true)
			if !ok {
				panic("paper: baseline must be executable")
			}
			for i, pct := range memPercents {
				capacity := tot * int64(pct) / 100
				pt, maps, ok := simulate(s, capacity, false)
				if !ok {
					row.PTIncrease[i] = math.Inf(1)
					row.MAPs[i] = math.Inf(1)
					continue
				}
				if !math.IsInf(row.PTIncrease[i], 0) {
					row.PTIncrease[i] += (pt/basePT - 1) / float64(len(wls))
					row.MAPs[i] += maps / float64(len(wls))
				}
			}
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d", p)
		for i := range memPercents {
			fmt.Fprintf(w, " | %16s %6s", fmtPct(row.PTIncrease[i]), fmtMAPs(row.MAPs[i]))
		}
		fmt.Fprintln(w)
	}
	return rows
}

// Table2 reproduces Table 2 (sparse Cholesky).
func Table2(w io.Writer, sc Scale) []OverheadRow {
	return overheadTable(w, "Table 2: run-time execution scheme overhead, sparse Cholesky", cholWorkloads, sc)
}

// Table3 reproduces Table 3 (sparse LU).
func Table3(w io.Writer, sc Scale) []OverheadRow {
	return overheadTable(w, "Table 3: run-time execution scheme overhead, sparse LU", luWorkloads, sc)
}

// CompareRow is one row of Tables 4, 6 and 7: entries are PT_B/PT_A - 1 per
// memory percentage; NaN renders "*" (B executable, A not), -Inf renders
// "-" (neither executable).
type CompareRow struct {
	Procs   int
	Entries []float64
}

const (
	entryStarA = math.MaxFloat64 // B executable while A is not -> "*"
	entryDash  = -math.MaxFloat64
)

func fmtCompare(v float64) string {
	switch v {
	case entryStarA:
		return "*"
	case entryDash:
		return "-"
	}
	return fmtPct(v)
}

// compareTable runs A vs B under the paper's entry semantics.
func compareTable(w io.Writer, title string, workloads func(Scale, int) []Workload, sc Scale,
	hA, hB sched.Heuristic, mergeBudget bool) []CompareRow {
	header(w, title)
	fmt.Fprintf(w, "%-5s", "P")
	for _, pct := range cmpPercents {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("%d%%", pct))
	}
	fmt.Fprintln(w)
	var rows []CompareRow
	for _, p := range tableProcs {
		row := CompareRow{Procs: p, Entries: make([]float64, len(cmpPercents))}
		wls := workloads(sc, p)
		type per struct {
			ok  [2]bool
			pt  [2]float64
			cnt int
		}
		acc := make([]per, len(cmpPercents))
		for _, wl := range wls {
			sA := buildSchedule(wl.G, p, hA, 0)
			tot := sA.TOT()
			for i, pct := range cmpPercents {
				capacity := tot * int64(pct) / 100
				sB := buildSchedule(wl.G, p, hB, volatileBudget(wl, p, capacity, mergeBudget))
				ptA, _, okA := simulate(sA, capacity, false)
				ptB, _, okB := simulate(sB, capacity, false)
				acc[i].cnt++
				if okA {
					acc[i].ok[0] = true
					acc[i].pt[0] += ptA
				}
				if okB {
					acc[i].ok[1] = true
					acc[i].pt[1] += ptB
				}
			}
		}
		for i := range cmpPercents {
			switch {
			case !acc[i].ok[0] && !acc[i].ok[1]:
				row.Entries[i] = entryDash
			case !acc[i].ok[0]:
				row.Entries[i] = entryStarA
			case !acc[i].ok[1]:
				// A executable, B not: the paper has no symbol for this
				// (it does not occur); render as dash.
				row.Entries[i] = entryDash
			default:
				row.Entries[i] = acc[i].pt[1]/acc[i].pt[0] - 1
			}
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d", p)
		for i := range cmpPercents {
			fmt.Fprintf(w, " %8s", fmtCompare(row.Entries[i]))
		}
		fmt.Fprintln(w)
	}
	return rows
}

// volatileBudget converts a capacity into the per-processor volatile budget
// used by DTS slice merging (capacity minus the largest permanent space).
func volatileBudget(wl Workload, p int, capacity int64, merge bool) int64 {
	if !merge {
		return 1 << 62
	}
	perm := make([]int64, p)
	for i := range wl.G.Objects {
		perm[wl.G.Objects[i].Owner] += wl.G.Objects[i].Size
	}
	var maxPerm int64
	for _, v := range perm {
		if v > maxPerm {
			maxPerm = v
		}
	}
	b := capacity - maxPerm
	if b < 1 {
		b = 1
	}
	return b
}

// Table4 reproduces Table 4: RCP vs MPO, (a) Cholesky and (b) LU.
func Table4(w io.Writer, sc Scale) (a, b []CompareRow) {
	a = compareTable(w, "Table 4a: RCP vs MPO, sparse Cholesky (entry = PT_MPO/PT_RCP - 1)", cholWorkloads, sc, sched.RCP, sched.MPO, false)
	b = compareTable(w, "Table 4b: RCP vs MPO, sparse LU", luWorkloads, sc, sched.RCP, sched.MPO, false)
	return a, b
}

// Table5Row is one row of Table 5.
type Table5Row struct {
	Procs int
	// RCP[i] / MPO[i] are average #MAPs at cmpPercents[i]; +Inf means
	// non-executable.
	RCP, MPO []float64
}

// Table5 reproduces Table 5: average number of MAPs for sparse Cholesky,
// RCP vs MPO, under shrinking memory.
func Table5(w io.Writer, sc Scale) []Table5Row {
	header(w, "Table 5: average #MAPs, sparse Cholesky, RCP vs MPO")
	fmt.Fprintf(w, "%-5s", "P")
	for _, pct := range cmpPercents {
		fmt.Fprintf(w, " %13s", fmt.Sprintf("%d%% RCP/MPO", pct))
	}
	fmt.Fprintln(w)
	var rows []Table5Row
	for _, p := range tableProcs {
		row := Table5Row{Procs: p, RCP: make([]float64, len(cmpPercents)), MPO: make([]float64, len(cmpPercents))}
		wls := cholWorkloads(sc, p)
		for _, wl := range wls {
			sA := buildSchedule(wl.G, p, sched.RCP, 0)
			sB := buildSchedule(wl.G, p, sched.MPO, 0)
			tot := sA.TOT()
			for i, pct := range cmpPercents {
				capacity := tot * int64(pct) / 100
				_, mapsA, okA := simulate(sA, capacity, false)
				_, mapsB, okB := simulate(sB, capacity, false)
				if !okA {
					row.RCP[i] = math.Inf(1)
				} else if !math.IsInf(row.RCP[i], 0) {
					row.RCP[i] += mapsA / float64(len(wls))
				}
				if !okB {
					row.MPO[i] = math.Inf(1)
				} else if !math.IsInf(row.MPO[i], 0) {
					row.MPO[i] += mapsB / float64(len(wls))
				}
			}
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d", p)
		for i := range cmpPercents {
			fmt.Fprintf(w, " %13s", fmtMAPs(row.RCP[i])+"/"+fmtMAPs(row.MPO[i]))
		}
		fmt.Fprintln(w)
	}
	return rows
}

// Table6 reproduces Table 6: MPO vs DTS.
func Table6(w io.Writer, sc Scale) (a, b []CompareRow) {
	a = compareTable(w, "Table 6a: MPO vs DTS, sparse Cholesky (entry = PT_DTS/PT_MPO - 1)", cholWorkloads, sc, sched.MPO, sched.DTS, false)
	b = compareTable(w, "Table 6b: MPO vs DTS, sparse LU", luWorkloads, sc, sched.MPO, sched.DTS, false)
	return a, b
}

// Table7 reproduces Table 7: RCP vs DTS with slice merging.
func Table7(w io.Writer, sc Scale) (a, b []CompareRow) {
	a = compareTable(w, "Table 7a: RCP vs DTS+merge, sparse Cholesky (entry = PT_DTSm/PT_RCP - 1)", cholWorkloads, sc, sched.RCP, sched.DTSMerge, true)
	b = compareTable(w, "Table 7b: RCP vs DTS+merge, sparse LU", luWorkloads, sc, sched.RCP, sched.DTSMerge, true)
	return a, b
}
