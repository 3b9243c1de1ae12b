package paper

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/proto"
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
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		panic(err)
	}
	s, err := sched.ScheduleMPO(g, assign, 2, sched.Unit())
	if err != nil {
		panic(err)
	}
	capacity := s.MinMem()
	fmt.Fprintf(w, "MPO schedule, %d memory units per processor (MIN_MEM)\n\n", capacity)
	pl, err := mem.NewPlan(s, capacity)
	if err != nil {
		panic(err)
	}
	for p := 0; p < s.P; p++ {
		fmt.Fprintf(w, "P%d order:", p)
		for _, t := range s.Order[p] {
			fmt.Fprintf(w, " %s", g.Tasks[t].Name)
		}
		fmt.Fprintln(w)
		for mi, m := range pl.Procs[p].MAPs {
			pos := "start of schedule"
			if m.Pos > 0 {
				pos = fmt.Sprintf("before %s", g.Tasks[s.Order[p][m.Pos]].Name)
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
	model := sched.Unit()
	// Half-unit MAP charges so the allocation points are visible in the
	// chart.
	model.MAPOverhead = 0.5
	model.MAPPerObject = 0.25
	if _, err := machine.Simulate(s, pl, proto.Derive(s), model, machine.Options{Trace: rec}); err != nil {
		panic(err)
	}
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
		s := buildSchedule(g, p, sched.MPO, 0)
		pl, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			panic(err)
		}
		if !pl.Executable {
			pl, err = mem.NewPlan(s, s.TOT())
			if err != nil {
				panic(err)
			}
		}
		res, err := machine.Simulate(s, pl, proto.Derive(s), sched.T3D(), machine.Options{})
		if err != nil {
			panic(err)
		}
		row := ExtensionTrisolveRow{
			Procs:       p,
			Tasks:       g.NumTasks(),
			MinMemRatio: float64(s.MinMem()) / float64(g.SeqSpace()),
			PT:          res.ParallelTime,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "P=%-3d %8d %12.3f %12.4g\n", row.Procs, row.Tasks, row.MinMemRatio, row.PT)
	}
	return rows
}
