package bakeoff

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

var update = flag.Bool("update", false, "regenerate the golden bake-off table")

const goldenPath = "../../../testdata/bakeoff/table.tsv"

func runTable(t *testing.T) *Table {
	t.Helper()
	structures, err := DefaultStructures()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Run(structures)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBakeoffGolden is the regression gate: the freshly measured table must
// match the committed golden bytes; if it doesn't, any cell that got worse
// in makespan, MIN_MEM, peak, or executability fails the build with a
// per-cell diagnosis, and a mere improvement fails asking for an -update
// bless so the better numbers become the new floor.
func TestBakeoffGolden(t *testing.T) {
	tbl := runTable(t)
	got := tbl.TSV()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(tbl.Cells), goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden table (generate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	prev, err := ParseTSV(want)
	if err != nil {
		t.Fatalf("golden table unparseable: %v", err)
	}
	next, err := ParseTSV(got)
	if err != nil {
		t.Fatalf("fresh table unparseable: %v", err)
	}
	if regs := Compare(prev, next); len(regs) > 0 {
		var b strings.Builder
		for _, r := range regs {
			fmt.Fprintf(&b, "  %s: %s\n", r.Key, r.Reason)
		}
		t.Fatalf("bake-off regressions against %s:\n%s", goldenPath, b.String())
	}
	t.Fatalf("bake-off table drifted without regressions (improvement or zoo change); bless with:\n  go test ./internal/sched/bakeoff -run TestBakeoffGolden -update")
}

// TestTableByteStable re-runs the harness and requires identical bytes:
// the golden gate is meaningless if generation itself wobbles.
func TestTableByteStable(t *testing.T) {
	a := runTable(t).TSV()
	b := runTable(t).TSV()
	if !bytes.Equal(a, b) {
		t.Fatal("two bake-off runs produced different bytes")
	}
}

// TestTableCoverage pins the acceptance shape of the zoo: at least 4
// structures × 4 schedulers × 3 budgets, with exact-frontier gap columns
// populated on the small instances (including a DTS gap measurement).
func TestTableCoverage(t *testing.T) {
	tbl := runTable(t)
	structures := map[string]bool{}
	scheds := map[string]bool{}
	budgets := map[int]bool{}
	dtsGap := false
	for i := range tbl.Cells {
		c := &tbl.Cells[i]
		structures[c.Structure] = true
		scheds[c.Sched.String()] = true
		budgets[c.BudgetPct] = true
		if c.HasGap && c.Sched.String() == "DTS" {
			dtsGap = true
			if c.GapTime < 1-1e-9 || c.GapMem < 1-1e-9 {
				t.Errorf("%s: gap below 1 beats the exact frontier (gapTime=%g gapMem=%g)", c.Key(), c.GapTime, c.GapMem)
			}
		}
	}
	if len(structures) < 4 || len(scheds) < 4 || len(budgets) < 3 {
		t.Fatalf("zoo too small: %d structures, %d schedulers, %d budgets", len(structures), len(scheds), len(budgets))
	}
	if !dtsGap {
		t.Fatal("no exact-frontier gap measured for DTS on any structure")
	}
}

// TestTreeMemWinsItsCells pins why TreeMem is in the zoo: on memtree-120
// (an in-forest, so Liu's traversal) and powerlaw-90 (a general DAG, so the
// greedy sweep) its MIN_MEM is strictly below every other scheduler's at
// every budget. Compare ignores rows that disappear, so deleting TreeMem
// would otherwise drop these rows without failing anything.
func TestTreeMemWinsItsCells(t *testing.T) {
	structures, err := DefaultStructures()
	if err != nil {
		t.Fatal(err)
	}
	wantLiu := map[string]bool{"memtree-120": true, "powerlaw-90": false}
	for _, st := range structures {
		liu, ok := wantLiu[st.Name]
		if !ok {
			continue
		}
		delete(wantLiu, st.Name)
		if _, got, err := sched.TreeMemOrder(st.G, st.Assign, sched.Unit()); err != nil || got != liu {
			t.Errorf("%s: TreeMem takes Liu's path %v (err %v), want %v", st.Name, got, err, liu)
		}
		tbl, err := Run([]Structure{st})
		if err != nil {
			t.Fatal(err)
		}
		tree := map[int]int64{}
		best := map[int]int64{}
		for _, c := range tbl.Cells {
			if c.Sched == sched.TreeMem {
				tree[c.BudgetPct] = c.MinMem
			} else if b, seen := best[c.BudgetPct]; !seen || c.MinMem < b {
				best[c.BudgetPct] = c.MinMem
			}
		}
		for _, pct := range BudgetPcts {
			if tree[pct] >= best[pct] {
				t.Errorf("%s at %d%%: TreeMem MIN_MEM %d, best other %d", st.Name, pct, tree[pct], best[pct])
			}
		}
	}
	if len(wantLiu) > 0 {
		t.Fatalf("structures missing from the zoo: %v", wantLiu)
	}
}

// TestCompareCatchesWorsenedCells deliberately worsens parsed cells and
// checks the gate trips — the mutation check for the regression machinery
// itself.
func TestCompareCatchesWorsenedCells(t *testing.T) {
	tbl := runTable(t)
	golden, err := ParseTSV(tbl.TSV())
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(c *Cell)
	}{
		{"makespan", func(c *Cell) { c.Makespan *= 1.5 }},
		{"minmem", func(c *Cell) { c.MinMem++ }},
		{"peakmax", func(c *Cell) { c.PeakMax += 3 }},
		{"executability", func(c *Cell) { c.Executable = false }},
	}
	for _, m := range mutations {
		worse, _ := ParseTSV(tbl.TSV())
		mutated := false
		for i := range worse.Cells {
			if m.name != "executability" || worse.Cells[i].Executable {
				m.mutate(&worse.Cells[i])
				mutated = true
				break
			}
		}
		if !mutated {
			t.Fatalf("%s: no cell to mutate", m.name)
		}
		if regs := Compare(golden, worse); len(regs) == 0 {
			t.Errorf("worsened %s not caught by Compare", m.name)
		}
	}
	// Improvements must NOT trip the gate (they require -update instead).
	better, _ := ParseTSV(tbl.TSV())
	for i := range better.Cells {
		if better.Cells[i].MinMem > 1 {
			better.Cells[i].MinMem--
			break
		}
	}
	if regs := Compare(golden, better); len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}
}

// TestParseTSVRoundTrip checks render → parse → render is the identity.
func TestParseTSVRoundTrip(t *testing.T) {
	tbl := runTable(t)
	raw := tbl.TSV()
	back, err := ParseTSV(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, back.TSV()) {
		t.Fatal("TSV -> ParseTSV -> TSV is not the identity")
	}
	if _, err := ParseTSV([]byte("nonsense\n")); err == nil {
		t.Fatal("ParseTSV accepted a garbage header")
	}
}
