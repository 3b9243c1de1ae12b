package paper

import (
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/sched"
)

// FragmentationRow is one row of the fragmentation extension experiment.
type FragmentationRow struct {
	Procs                       int
	CountingFloor, AddressFloor int64
	PremiumPct                  float64
}

// ExtensionFragmentation measures the paper's closing open problem: the
// MIN_MEM arithmetic (and the counting allocator behind the MAP planner)
// assumes freed space is perfectly reusable, but "space freed from
// irregular ... structures usually contains many small pieces and is hard
// to be re-utilized". We replay each MAP plan's allocation trace against a
// real first-fit coalescing allocator (rma.Arena) and binary-search the
// tightest capacity that still works — the gap over the counting floor is
// the fragmentation premium a special memory allocator must close.
// Measured on the Cholesky workload with MPO ordering.
func ExtensionFragmentation(w io.Writer, sc Scale) []FragmentationRow {
	header(w, "Extension: fragmentation premium of address-based allocation (MPO)")
	var rows []FragmentationRow
	for _, app := range []struct {
		name string
		wls  func(Scale, int) []Workload
	}{{"Cholesky (uniform blocks)", cholWorkloads}, {"LU (variable panels)", luWorkloads}} {
		fmt.Fprintf(w, "%s\n", app.name)
		fmt.Fprintf(w, "%-5s %16s %16s %10s\n", "P", "counting floor", "first-fit floor", "premium")
		for _, p := range tableProcs {
			wl := app.wls(sc, p)[0]
			s := buildSchedule(wl.G, p, sched.MPO, 0)
			counting, address, err := mem.Floors(s, mem.Options{})
			if err != nil {
				panic(err)
			}
			row := FragmentationRow{
				Procs:         p,
				CountingFloor: counting,
				AddressFloor:  address,
				PremiumPct:    100 * (float64(address)/float64(counting) - 1),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "P=%-3d %16d %16d %9.2f%%\n", p, counting, address, row.PremiumPct)
		}
	}
	return rows
}

// BreakdownRow is one row of the memory-breakdown extension experiment.
type BreakdownRow struct {
	Procs   int
	DataPct float64
	DepPct  float64 // dependence-structure share, the paper's 18-50% figure
}

// ExtensionMemoryBreakdown estimates the other space overhead the paper's
// conclusion quantifies: "dependence structures can take from 18% to 50%
// of the total memory space". Per processor we count the storage of the
// local dependence structure (edge records touching local tasks and task
// descriptors, in float64-word units: 2 words per edge endpoint, 6 per
// task) against the data-object space of the schedule, and report the
// machine-wide average share.
func ExtensionMemoryBreakdown(w io.Writer, sc Scale) []BreakdownRow {
	header(w, "Extension: dependence-structure share of total memory")
	fmt.Fprintf(w, "%-5s %12s %12s\n", "P", "data", "dep-struct")
	const (
		wordsPerEdgeEnd = 2
		wordsPerTask    = 6
	)
	var rows []BreakdownRow
	for _, p := range tableProcs {
		wl := cholWorkloads(sc, p)[0]
		s := buildSchedule(wl.G, p, sched.MPO, 0)
		perm := s.PermSize()
		vol := s.VolatileObjects()
		var depSum, dataSum float64
		for q := 0; q < p; q++ {
			localTasks := len(s.Order[q])
			localEdgeEnds := 0
			for _, t := range s.Order[q] {
				localEdgeEnds += len(s.G.Out(t)) + len(s.G.In(t))
			}
			dep := float64(wordsPerTask*localTasks + wordsPerEdgeEnd*localEdgeEnds)
			data := float64(perm[q])
			for _, o := range vol[q] {
				data += float64(s.G.Objects[o].Size)
			}
			depSum += dep
			dataSum += data
		}
		row := BreakdownRow{
			Procs:   p,
			DataPct: 100 * dataSum / (dataSum + depSum),
			DepPct:  100 * depSum / (dataSum + depSum),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d %11.1f%% %11.1f%%\n", p, row.DataPct, row.DepPct)
	}
	return rows
}
