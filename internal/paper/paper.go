// Package paper regenerates every table and figure of the evaluation
// section (Section 5) of Fu & Yang, PPoPP'97, on the simulated machine:
//
//	Table 1  – per-processor memory over S1/p without recycling (Cholesky)
//	Table 2  – PT increase and #MAPs under 100/75/50/40% memory (Cholesky)
//	Table 3  – the same for sparse LU
//	Table 4  – RCP vs MPO parallel times (Cholesky, LU)
//	Table 5  – average #MAPs, RCP vs MPO (Cholesky)
//	Table 6  – MPO vs DTS parallel times (Cholesky, LU)
//	Table 7  – RCP vs DTS+merge parallel times (Cholesky, LU)
//	Table 8  – large sparse LU: PT, #MAPs, MFLOPS
//	Figure 7 – memory scalability of the three heuristics
//
// Absolute numbers differ from the paper (synthetic matrices, idealized
// cost model); the shapes — who wins, how overhead grows as memory shrinks
// and processor counts rise, where schedules stop being executable — are
// the reproduction targets. See EXPERIMENTS.md.
package paper

import (
	"fmt"
	"io"
	"math"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/trisolve"
	"repro/internal/util"
)

// Scale selects workload sizes.
type Scale int

const (
	// Small is a scaled-down workload for quick runs and benchmarks.
	Small Scale = iota
	// Full uses the paper's matrix dimensions (n = 3500..7300).
	Full
)

// Workload bundles a built application instance for one processor count.
type Workload struct {
	Name string
	G    *graph.DAG
}

// Workload caches: the same built problems are shared across tables (the
// harness is sequential, so plain maps suffice).
var (
	cholCache = map[[2]int][]Workload{}
	luCache   = map[[2]int][]Workload{}
)

// cholWorkloads returns the Cholesky test problems (BCSSTK15/24 stand-ins)
// built for p processors.
func cholWorkloads(sc Scale, p int) []Workload {
	if w, ok := cholCache[[2]int{int(sc), p}]; ok {
		return w
	}
	w := buildCholWorkloads(sc, p)
	cholCache[[2]int{int(sc), p}] = w
	return w
}

func buildCholWorkloads(sc Scale, p int) []Workload {
	var mats []struct {
		name string
		m    *sparse.Matrix
	}
	if sc == Full {
		mats = []struct {
			name string
			m    *sparse.Matrix
		}{
			{"BCSSTK15~", sparse.BCSSTK15Like()},
			{"BCSSTK24~", sparse.BCSSTK24Like()},
		}
	} else {
		rng := util.NewRNG(100)
		mats = []struct {
			name string
			m    *sparse.Matrix
		}{
			{"grid24x18", sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 150, rng)},
			{"grid20x20", sparse.AddRandomSymLinks(sparse.Grid2D(20, 20, true), 120, rng)},
		}
	}
	bs := 24
	if sc == Small {
		bs = 12
	}
	out := make([]Workload, 0, len(mats))
	for _, mm := range mats {
		m := mm.m.PermuteSym(sparse.RCM(mm.m))
		pr, err := chol.Build(m, chol.Options{Procs: p, BlockSize: bs})
		if err != nil {
			panic(fmt.Sprintf("paper: chol build %s: %v", mm.name, err))
		}
		out = append(out, Workload{Name: mm.name, G: pr.G})
	}
	return out
}

// luWorkloads returns the LU test problem (goodwin stand-in) built for p
// processors.
func luWorkloads(sc Scale, p int) []Workload {
	if w, ok := luCache[[2]int{int(sc), p}]; ok {
		return w
	}
	w := buildLUWorkloads(sc, p)
	luCache[[2]int{int(sc), p}] = w
	return w
}

func buildLUWorkloads(sc Scale, p int) []Workload {
	var m *sparse.Matrix
	name := "goodwin~"
	if sc == Full {
		m = sparse.GoodwinLike()
	} else {
		rng := util.NewRNG(200)
		m = sparse.AddRandomUnsymLinks(sparse.Grid2D(26, 22, true), 500, rng)
		name = "grid26x22u"
	}
	bs := 24
	if sc == Small {
		bs = 12
	}
	pr, err := lu.Build(m, lu.Options{Procs: p, BlockSize: bs})
	if err != nil {
		panic(fmt.Sprintf("paper: lu build: %v", err))
	}
	return []Workload{{Name: name, G: pr.G}}
}

// trisolveGraph builds the triangular-solve task graph from the factored
// first Cholesky workload.
func trisolveGraph(sc Scale, p int) *graph.DAG {
	key := [2]int{int(sc), p}
	if g, ok := trisolveCache[key]; ok {
		return g
	}
	// Rebuild the underlying chol problem with values so the factor exists.
	var m *sparse.Matrix
	rng := util.NewRNG(100)
	if sc == Full {
		m = sparse.BCSSTK15Like()
	} else {
		m = sparse.AddRandomSymLinks(sparse.Grid2D(24, 18, true), 150, rng)
	}
	bs := 24
	if sc == Small {
		bs = 12
	}
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	cp, err := chol.Build(m, chol.Options{Procs: p, BlockSize: bs})
	if err != nil {
		panic(err)
	}
	factor, err := cp.SequentialFactor()
	if err != nil {
		panic(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	ts, err := trisolve.Build(cp, factor, b)
	if err != nil {
		panic(err)
	}
	trisolveCache[key] = ts.G
	return ts.G
}

var trisolveCache = map[[2]int]*graph.DAG{}

// buildSchedule assigns owners via the application mapping already present
// on the graph and orders with the heuristic.
func buildSchedule(g *graph.DAG, p int, h sched.Heuristic, availVol int64) *sched.Schedule {
	assign, err := sched.OwnerComputeAssign(g, p)
	if err != nil {
		panic("paper: " + err.Error())
	}
	s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), availVol)
	if err != nil {
		panic("paper: " + err.Error())
	}
	return s
}

// simulate runs the machine simulator for the schedule under capacity,
// returning (parallel time, avg MAPs, executable).
func simulate(s *sched.Schedule, capacity int64, baseline bool) (float64, float64, bool) {
	pl, err := mem.NewPlan(s, capacity)
	if err != nil {
		panic("paper: " + err.Error())
	}
	if !pl.Executable {
		return math.Inf(1), math.Inf(1), false
	}
	res, err := machine.Simulate(s, pl, proto.Derive(s), sched.T3D(), machine.Options{Baseline: baseline})
	if err != nil {
		panic("paper: " + err.Error())
	}
	return res.ParallelTime, res.AvgMAPs, true
}

// Procs used throughout the evaluation tables.
var tableProcs = []int{2, 4, 8, 16, 32}

// memPercents of Tables 2 and 3 (the 100% column reports overhead with
// full memory under management).
var memPercents = []int{100, 75, 50, 40}

// cmpPercents of Tables 4, 6, 7.
var cmpPercents = []int{75, 50, 40, 25}

// fmtEntry renders a ratio entry the way the paper does.
func fmtPct(v float64) string {
	if math.IsInf(v, 0) {
		return "inf"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

func fmtMAPs(v float64) string {
	if math.IsInf(v, 0) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// header prints a rule-delimited table title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// Report writes the experiments selected by exp ("all", or one of table1 …
// table8, ablation, figure3, figure7, trisolve, fragmentation, breakdown) in
// the order the paper presents them: what cmd/paper prints.
func Report(w io.Writer, sc Scale, exp string) {
	run := func(name string, f func()) {
		if exp == "all" || exp == name {
			f()
		}
	}
	run("table1", func() { Table1(w, sc) })
	run("table2", func() { Table2(w, sc) })
	run("table3", func() { Table3(w, sc) })
	run("table4", func() { Table4(w, sc) })
	run("table5", func() { Table5(w, sc) })
	run("table6", func() { Table6(w, sc) })
	run("table7", func() { Table7(w, sc) })
	run("table8", func() { Table8(w, sc) })
	run("ablation", func() {
		AblationMAPPolicy(w, sc)
		AblationSlotDepth(w, sc)
		AblationMergeSweep(w, sc)
	})
	run("figure3", func() { Figure3(w) })
	run("figure7", func() { Figure7(w, sc) })
	run("trisolve", func() { ExtensionTrisolve(w, sc) })
	run("fragmentation", func() { ExtensionFragmentation(w, sc) })
	run("breakdown", func() { ExtensionMemoryBreakdown(w, sc) })
}
