package paper

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Figure3 writes to w an illustration of Figure 3 of the paper on the
// Figure-2 worked example:
// where the memory allocation points fall when the available memory is
// tight, which volatile objects each MAP frees and allocates, which
// addresses are notified to whom, and the resulting execution as a Gantt
// chart (MAPs drawn as '#').
func Figure3(w io.Writer) {
	header(w, "Figure 3: memory allocation points on the Figure-2 example")
	g := sched.Figure2DAG()
	model := sched.Unit()
	// Half-unit MAP charges so the allocation points are visible in the
	// chart. MAP costs do not enter scheduling.
	model.MAPOverhead = 0.5
	model.MAPPerObject = 0.25
	a := must(plan.Compile(g, must(sched.OwnerComputeAssign(g, 2)), 2, sched.MPO, model, 0))
	a = replan(a, a.MinMem())
	s, pl := a.Schedule, a.Mem
	fmt.Fprintf(w, "MPO schedule, %d memory units per processor (MIN_MEM)\n\n", a.Capacity)
	for p := 0; p < s.P; p++ {
		fmt.Fprintf(w, "P%d order:", p)
		for _, t := range s.Order[p] {
			fmt.Fprintf(w, " %s", g.TaskName(t))
		}
		fmt.Fprintln(w)
		for mi, m := range pl.Procs[p].MAPs {
			pos := "start of schedule"
			if m.Pos > 0 {
				pos = fmt.Sprintf("before %s", g.TaskName(s.Order[p][m.Pos]))
			}
			fmt.Fprintf(w, "  MAP %d (%s):", mi+1, pos)
			if len(m.Frees) > 0 {
				fmt.Fprintf(w, " free{")
				for i, o := range m.Frees {
					if i > 0 {
						fmt.Fprint(w, ",")
					}
					fmt.Fprint(w, g.Objects[o].Name)
				}
				fmt.Fprint(w, "}")
			}
			if len(m.Allocs) > 0 {
				fmt.Fprintf(w, " alloc{")
				for i, o := range m.Allocs {
					if i > 0 {
						fmt.Fprint(w, ",")
					}
					fmt.Fprint(w, g.Objects[o].Name)
				}
				fmt.Fprint(w, "}")
			}
			for k, dst := range m.Notify.Dst {
				fmt.Fprintf(w, " notify P%d of {", dst)
				for i, o := range m.Notify.Objects(k) {
					if i > 0 {
						fmt.Fprint(w, ",")
					}
					fmt.Fprint(w, g.Objects[o].Name)
				}
				fmt.Fprint(w, "}")
			}
			fmt.Fprintln(w)
		}
	}
	rec := &trace.Recorder{}
	must(machine.Simulate(a, machine.Options{Trace: rec}))
	fmt.Fprintln(w, "\nexecution ('#' = MAP activity):")
	fmt.Fprint(w, rec.Gantt(72))
}

// ExtensionTrisolveRow reports the triangular-solve extension experiment.
type ExtensionTrisolveRow struct {
	Procs       int
	Tasks       int
	MinMemRatio float64 // MPO MIN_MEM over S1
	PT          float64
}

// ExtensionTrisolve runs the sparse triangular solver — the third workload
// the paper says RAPID handles — through the same pipeline: graph size,
// memory behaviour under MPO, and simulated parallel time. (The paper has
// no table for it; this is the repository's extension experiment.)
func ExtensionTrisolve(w io.Writer, sc Scale) []ExtensionTrisolveRow {
	header(w, "Extension: sparse triangular solve (forward+backward) through the pipeline")
	fmt.Fprintf(w, "%-5s %8s %12s %12s\n", "P", "tasks", "mem/S1", "PT")
	var rows []ExtensionTrisolveRow
	for _, p := range tableProcs {
		g := trisolveGraph(sc, p)
		a := compile(g, p, sched.MPO, 0)
		if tight := replan(a, a.MinMem()); tight.Executable() {
			a = tight
		}
		pt, _, _ := simulate(a, machine.Options{})
		row := ExtensionTrisolveRow{
			Procs:       p,
			Tasks:       g.NumTasks(),
			MinMemRatio: float64(a.MinMem()) / float64(g.SeqSpace()),
			PT:          pt,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d %8d %12.3f %12.4g\n", row.Procs, row.Tasks, row.MinMemRatio, row.PT)
	}
	return rows
}
