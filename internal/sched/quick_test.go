package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/util"
)

// TestQuickScheduleInvariants drives the three heuristics over random
// owner-compute programs and checks, for every schedule produced:
// validity (a linear extension per processor and globally), MinMem <= TOT,
// MinMem at least the largest permanent footprint, and makespan at least
// the critical path over the compute-only DAG.
func TestQuickScheduleInvariants(t *testing.T) {
	f := func(seed uint64, a, b, c uint8) bool {
		rng := util.NewRNG(seed)
		p := 2 + int(c)%4
		g := graph.GenOwnerCompute(rng, 5+int(a)%50, 3+int(b)%12, p)
		assign, err := OwnerComputeAssign(g, p)
		if err != nil {
			t.Logf("assign: %v", err)
			return false
		}
		for _, h := range []Heuristic{RCP, MPO, DTS} {
			s, err := ScheduleWith(h, g, assign, p, Unit(), 0)
			if err != nil {
				t.Logf("%v: %v", h, err)
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("%v: %v", h, err)
				return false
			}
			minMem, tot := s.MinMem(), s.TOT()
			if minMem > tot {
				t.Logf("%v: MinMem %d > TOT %d", h, minMem, tot)
				return false
			}
			perm := s.PermSize()
			var maxPerm int64
			for _, v := range perm {
				if v > maxPerm {
					maxPerm = v
				}
			}
			if minMem < maxPerm {
				t.Logf("%v: MinMem %d below permanent %d", h, minMem, maxPerm)
				return false
			}
			if s.Makespan+1e-9 < g.CriticalPathLength(graph.ZeroComm)/float64(1) {
				// With Unit cost model task time == cost, so the makespan
				// can never beat the zero-comm critical path.
				t.Logf("%v: makespan %v below critical path", h, s.Makespan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeSlicesInvariants: merging never increases the slice count,
// preserves contiguity (new indices are non-decreasing and gap-free), and
// each merged slice's total H fits the budget whenever a single slice does.
func TestQuickMergeSlicesInvariants(t *testing.T) {
	f := func(hsRaw []uint16, budRaw uint16) bool {
		if len(hsRaw) == 0 {
			return true
		}
		hs := make([]int64, len(hsRaw))
		var maxH int64
		for i, v := range hsRaw {
			hs[i] = int64(v)%97 + 1
			if hs[i] > maxH {
				maxH = hs[i]
			}
		}
		budget := int64(budRaw)%200 + 1
		newIdx, n := MergeSlices(hs, budget)
		if n > len(hs) || n < 1 {
			return false
		}
		prev := int32(0)
		for i, idx := range newIdx {
			if idx < prev || idx > prev+1 {
				return false // not contiguous
			}
			if i == 0 && idx != 0 {
				return false
			}
			prev = idx
		}
		if int(prev)+1 != n {
			return false
		}
		// Sum of H within each merged slice obeys the budget unless a
		// single original slice alone exceeds it.
		sums := make([]int64, n)
		for i, idx := range newIdx {
			sums[idx] += hs[i]
		}
		if maxH <= budget {
			for _, s := range sums {
				if s > budget {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDTSSliceOrderConsistent: for any random program, the DTS slice
// assignment is consistent with the dependence direction — an edge never
// goes from a later slice to an earlier one.
func TestQuickDTSSliceOrderConsistent(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		rng := util.NewRNG(seed)
		g := graph.GenOwnerCompute(rng, 5+int(a)%40, 3+int(b)%10, 2)
		sliceOf, _, err := Slices(g)
		if err != nil {
			t.Logf("slices: %v", err)
			return false
		}
		for ti := 0; ti < g.NumTasks(); ti++ {
			for _, e := range g.Out(graph.TaskID(ti)) {
				if sliceOf[e.From] > sliceOf[e.To] {
					t.Logf("edge %d->%d from slice %d to %d", e.From, e.To, sliceOf[e.From], sliceOf[e.To])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
