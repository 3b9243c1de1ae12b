// Package bakeoff runs the scheduler regression bake-off: every scheduling
// heuristic over every scenario-zoo structure under several memory budgets,
// with the exact branch-and-bound frontier as ground truth on the small
// instances. The result is rendered as a byte-stable TSV table that lives
// under testdata/bakeoff/ at the repository root; CI re-runs the harness
// and fails when any cell regresses in makespan, MIN_MEM, or
// executability, so a future "speedup" cannot silently trade space for
// time. Improvements don't fail the build but do change the bytes — they
// are blessed by regenerating the golden file with -update.
package bakeoff

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sched/exact"
)

// Heuristics are the columns of the bake-off, in table order.
func Heuristics() []sched.Heuristic {
	return []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem}
}

// BudgetPcts are the memory budgets, as percentages of the structure's
// reference TOT (the paper's memory-constraint axis).
var BudgetPcts = []int{50, 75, 100}

// Structure is one materialized bake-off instance.
type Structure struct {
	Name   string
	G      *graph.DAG
	Assign []graph.Proc
	Procs  int
	// Exact is the reference frontier; nil when the instance is above the
	// exact-solver cap or the solver ran out of budget.
	Exact *exact.Result
}

// Cell is one (structure × scheduler × budget) measurement.
type Cell struct {
	Structure string
	Tasks     int
	Procs     int
	Sched     sched.Heuristic
	BudgetPct int
	Budget    int64
	Makespan  float64
	MinMem    int64
	TOT       int64
	PeakMax   int64
	Imbalance float64
	// Executable reports whether the MAP planner fits the schedule into the
	// budget (allocate-ahead semantics, internal/mem).
	Executable bool
	// GapTime/GapMem compare against the exact frontier: makespan over the
	// best achievable makespan at this cell's memory level, and MIN_MEM
	// over the best achievable MIN_MEM. Meaningful only when HasGap.
	GapTime float64
	GapMem  float64
	HasGap  bool
}

// Key identifies a cell across table generations.
func (c *Cell) Key() string {
	return fmt.Sprintf("%s/%s/%d", c.Structure, c.Sched, c.BudgetPct)
}

// Table is a full bake-off result.
type Table struct {
	Cells []Cell
}

// DefaultStructures materializes the pinned zoo: the paper's Figure 2
// example plus generated structures at two scales — small instances the
// exact solver can fence, and larger irregular ones that exercise the
// heuristics where exactness is out of reach.
func DefaultStructures() ([]Structure, error) {
	type spec struct {
		name  string
		gen   string // "" = figure2
		seed  uint64
		size  int
		procs int
	}
	specs := []spec{
		{name: "figure2", procs: 2},
		{name: "memtree-16", gen: "memtree", seed: 7, size: 16, procs: 2},
		{name: "elimtree-14", gen: "elimtree", seed: 3, size: 14, procs: 2},
		{name: "powerlaw-12", gen: "powerlaw", seed: 5, size: 12, procs: 2},
		{name: "elimtree-120", gen: "elimtree", seed: 11, size: 120, procs: 4},
		{name: "powerlaw-150", gen: "powerlaw", seed: 13, size: 150, procs: 4},
		{name: "highfill-90", gen: "highfill", seed: 17, size: 90, procs: 4},
		// The two structures that keep TreeMem: its MIN_MEM is strictly
		// below every other scheduler's at every budget, on Liu's path
		// (memtree-120) and on the greedy path (powerlaw-90).
		{name: "memtree-120", gen: "memtree", seed: 7, size: 120, procs: 2},
		{name: "powerlaw-90", gen: "powerlaw", seed: 7, size: 90, procs: 4},
	}
	gens := make(map[string]graph.Scenario)
	for _, sc := range graph.Scenarios() {
		gens[sc.Name] = sc
	}
	var out []Structure
	for _, sp := range specs {
		var g *graph.DAG
		var err error
		if sp.gen == "" {
			g = sched.Figure2DAG()
		} else {
			sc, ok := gens[sp.gen]
			if !ok {
				return nil, fmt.Errorf("bakeoff: unknown generator %q", sp.gen)
			}
			g, err = sc.Build(sp.seed, sp.size)
			if err != nil {
				return nil, fmt.Errorf("bakeoff: %s: %w", sp.name, err)
			}
			if !sc.PresetOwners {
				sched.CyclicOwners(g, sp.procs)
			}
		}
		assign, err := sched.OwnerComputeAssign(g, sp.procs)
		if err != nil {
			return nil, fmt.Errorf("bakeoff: %s: %w", sp.name, err)
		}
		st := Structure{Name: sp.name, G: g, Assign: assign, Procs: sp.procs}
		if g.NumTasks() <= 20 {
			res, err := exact.Frontier(g, assign, sp.procs, sched.Unit(), exact.Options{})
			if err == nil && res.Complete {
				st.Exact = res
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Run measures every (structure × scheduler × budget) cell.
func Run(structures []Structure) (*Table, error) {
	model := sched.Unit()
	tbl := &Table{}
	for _, st := range structures {
		// The reference TOT (budget base) comes from the RCP schedule so
		// that every heuristic of a structure shares the same budget axis.
		ref, err := sched.ScheduleRCP(st.G, st.Assign, st.Procs, model)
		if err != nil {
			return nil, fmt.Errorf("bakeoff: %s: rcp reference: %w", st.Name, err)
		}
		refTOT := ref.TOT()
		perm := ref.PermSize()
		var maxPerm int64
		for _, v := range perm {
			if v > maxPerm {
				maxPerm = v
			}
		}
		for _, pct := range BudgetPcts {
			budget := refTOT * int64(pct) / 100
			for _, h := range Heuristics() {
				s, err := sched.ScheduleWith(h, st.G, st.Assign, st.Procs, model, budget-maxPerm)
				if err != nil {
					return nil, fmt.Errorf("bakeoff: %s/%s: %w", st.Name, h, err)
				}
				pl, err := mem.NewPlan(s, budget)
				if err != nil {
					return nil, fmt.Errorf("bakeoff: %s/%s: plan: %w", st.Name, h, err)
				}
				peaks := s.PerProcPeaks()
				var peakMax int64
				for _, pk := range peaks {
					if pk > peakMax {
						peakMax = pk
					}
				}
				cell := Cell{
					Structure:  st.Name,
					Tasks:      st.G.NumTasks(),
					Procs:      st.Procs,
					Sched:      h,
					BudgetPct:  pct,
					Budget:     budget,
					Makespan:   s.Makespan,
					MinMem:     s.MinMem(),
					TOT:        s.TOT(),
					PeakMax:    peakMax,
					Imbalance:  s.PeakImbalance(),
					Executable: pl.Executable,
				}
				if st.Exact != nil {
					if gt, ok := st.Exact.GapTime(s.Makespan, s.MinMem()); ok {
						if gm, ok2 := st.Exact.GapMem(s.MinMem()); ok2 {
							cell.GapTime, cell.GapMem, cell.HasGap = gt, gm, true
						}
					}
				}
				tbl.Cells = append(tbl.Cells, cell)
			}
		}
	}
	return tbl, nil
}

const tsvHeader = "structure\ttasks\tprocs\tsched\tbudget%\tbudget\tmakespan\tminmem\ttot\tpeakmax\timbalance\texec\tgap_time\tgap_mem"

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

// TSV renders the table deterministically: fixed column set, fixed float
// formatting, one row per cell in generation order.
func (t *Table) TSV() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, tsvHeader)
	for i := range t.Cells {
		c := &t.Cells[i]
		gt, gm := "-", "-"
		if c.HasGap {
			gt, gm = fmtF(c.GapTime), fmtF(c.GapMem)
		}
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s\t%d\t%d\t%s\t%d\t%d\t%d\t%s\t%v\t%s\t%s\n",
			c.Structure, c.Tasks, c.Procs, c.Sched, c.BudgetPct, c.Budget,
			fmtF(c.Makespan), c.MinMem, c.TOT, c.PeakMax, fmtF(c.Imbalance),
			c.Executable, gt, gm)
	}
	return b.Bytes()
}

func schedByName(name string) (sched.Heuristic, error) {
	for _, h := range Heuristics() {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("bakeoff: unknown heuristic %q", name)
}

// ParseTSV parses a table rendered by TSV.
func ParseTSV(data []byte) (*Table, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != tsvHeader {
		return nil, fmt.Errorf("bakeoff: bad or missing header")
	}
	tbl := &Table{}
	for ln, line := range lines[1:] {
		f := strings.Split(line, "\t")
		if len(f) != 14 {
			return nil, fmt.Errorf("bakeoff: line %d: %d fields", ln+2, len(f))
		}
		var c Cell
		var err error
		c.Structure = f[0]
		if c.Tasks, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d tasks: %w", ln+2, err)
		}
		if c.Procs, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d procs: %w", ln+2, err)
		}
		if c.Sched, err = schedByName(f[3]); err != nil {
			return nil, err
		}
		if c.BudgetPct, err = strconv.Atoi(f[4]); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d budget%%: %w", ln+2, err)
		}
		if c.Budget, err = strconv.ParseInt(f[5], 10, 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d budget: %w", ln+2, err)
		}
		if c.Makespan, err = strconv.ParseFloat(f[6], 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d makespan: %w", ln+2, err)
		}
		if c.MinMem, err = strconv.ParseInt(f[7], 10, 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d minmem: %w", ln+2, err)
		}
		if c.TOT, err = strconv.ParseInt(f[8], 10, 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d tot: %w", ln+2, err)
		}
		if c.PeakMax, err = strconv.ParseInt(f[9], 10, 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d peakmax: %w", ln+2, err)
		}
		if c.Imbalance, err = strconv.ParseFloat(f[10], 64); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d imbalance: %w", ln+2, err)
		}
		if c.Executable, err = strconv.ParseBool(f[11]); err != nil {
			return nil, fmt.Errorf("bakeoff: line %d exec: %w", ln+2, err)
		}
		if f[12] != "-" {
			if c.GapTime, err = strconv.ParseFloat(f[12], 64); err != nil {
				return nil, fmt.Errorf("bakeoff: line %d gap_time: %w", ln+2, err)
			}
			if c.GapMem, err = strconv.ParseFloat(f[13], 64); err != nil {
				return nil, fmt.Errorf("bakeoff: line %d gap_mem: %w", ln+2, err)
			}
			c.HasGap = true
		}
		tbl.Cells = append(tbl.Cells, c)
	}
	return tbl, nil
}

// Regression is one cell that got worse in a guarded dimension.
type Regression struct {
	Key    string
	Reason string
}

// Compare reports the cells of next that regressed against prev: larger
// makespan, larger MIN_MEM or peak, or lost executability. Cells present
// only on one side are not regressions (the zoo may grow), and
// improvements are deliberately not symmetric — they change the golden
// bytes and are blessed with -update, but never fail.
func Compare(prev, next *Table) []Regression {
	idx := make(map[string]*Cell, len(prev.Cells))
	for i := range prev.Cells {
		idx[prev.Cells[i].Key()] = &prev.Cells[i]
	}
	var regs []Regression
	for i := range next.Cells {
		c := &next.Cells[i]
		old, ok := idx[c.Key()]
		if !ok {
			continue
		}
		const relEps = 1e-9
		if c.Makespan > old.Makespan*(1+relEps) {
			regs = append(regs, Regression{c.Key(), fmt.Sprintf("makespan %s -> %s", fmtF(old.Makespan), fmtF(c.Makespan))})
		}
		if c.MinMem > old.MinMem {
			regs = append(regs, Regression{c.Key(), fmt.Sprintf("minmem %d -> %d", old.MinMem, c.MinMem)})
		}
		if c.PeakMax > old.PeakMax {
			regs = append(regs, Regression{c.Key(), fmt.Sprintf("peakmax %d -> %d", old.PeakMax, c.PeakMax)})
		}
		if old.Executable && !c.Executable {
			regs = append(regs, Regression{c.Key(), "lost executability"})
		}
	}
	return regs
}
