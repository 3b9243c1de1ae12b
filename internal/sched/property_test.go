// Property-based cross-checks between the three layers that each claim the
// same invariants from a different angle: the scheduler (dependence-safe
// orders, Theorem-2 space bounds), the MAP planner (frees strictly after
// last use, allocations no later than first use, replayable peaks) and the
// static verifier (which must agree with an independent replay on clean
// plans and disagree loudly on mutated ones). The package is sched_test so
// it can import internal/verify, which itself imports sched.
package sched_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/util"
	"repro/internal/verify"
)

// volatileUses scans a processor's execution order directly (independent
// of sched.VolatileLifetimes) and returns first- and last-use positions of
// every volatile object the processor touches.
func volatileUses(s *sched.Schedule, p int) (first, last map[graph.ObjID]int32) {
	first = make(map[graph.ObjID]int32)
	last = make(map[graph.ObjID]int32)
	for i, t := range s.Order[p] {
		for _, o := range s.G.Accesses(t) {
			if s.G.Objects[o].Owner == graph.Proc(p) {
				continue
			}
			if _, ok := first[o]; !ok {
				first[o] = int32(i)
			}
			last[o] = int32(i)
		}
	}
	return first, last
}

// replayPlan re-executes a MAP plan against uses derived straight from the
// schedule and returns an error on the first violated invariant: a free at
// or before last use, an allocation after first use, double free/alloc, a
// used object never allocated, or a declared peak that disagrees with the
// replay.
func replayPlan(s *sched.Schedule, mp *mem.Plan) error {
	perm := s.PermSize()
	for p := range mp.Procs {
		pp := &mp.Procs[p]
		if !pp.Executable {
			return fmt.Errorf("proc %d not executable under capacity %d", p, mp.Capacity)
		}
		first, last := volatileUses(s, p)
		allocated := make(map[graph.ObjID]bool)
		freed := make(map[graph.ObjID]bool)
		inUse, peak := perm[p], perm[p]
		for _, m := range pp.MAPs {
			for _, o := range m.Frees {
				switch {
				case !allocated[o]:
					return fmt.Errorf("proc %d MAP@%d frees unallocated object %d", p, m.Pos, o)
				case freed[o]:
					return fmt.Errorf("proc %d MAP@%d double-frees object %d", p, m.Pos, o)
				case last[o] >= m.Pos:
					return fmt.Errorf("proc %d MAP@%d frees object %d at/before last use %d", p, m.Pos, o, last[o])
				}
				freed[o] = true
				inUse -= s.G.Objects[o].Size
			}
			for _, o := range m.Allocs {
				if allocated[o] {
					return fmt.Errorf("proc %d MAP@%d reallocates object %d", p, m.Pos, o)
				}
				if f, ok := first[o]; !ok || f < m.Pos {
					return fmt.Errorf("proc %d MAP@%d allocates object %d after first use", p, m.Pos, o)
				}
				allocated[o] = true
				inUse += s.G.Objects[o].Size
			}
			if inUse > peak {
				peak = inUse
			}
		}
		for o := range first {
			if !allocated[o] {
				return fmt.Errorf("proc %d never allocates used volatile object %d", p, o)
			}
		}
		if peak != pp.Peak {
			return fmt.Errorf("proc %d declared peak %d, replay got %d", p, pp.Peak, peak)
		}
		if mp.Capacity > 0 && peak > mp.Capacity {
			return fmt.Errorf("proc %d peak %d exceeds capacity %d", p, peak, mp.Capacity)
		}
	}
	return nil
}

// TestQuickPlanFreesFollowLastUse: over random programs and all three
// ordering heuristics, the MAP plan at both the tight (MIN_MEM) and loose
// (TOT) capacities survives the independent replay above — every free is
// strictly after last use, every allocation no later than first use, and
// declared peaks are exactly reproducible.
func TestQuickPlanFreesFollowLastUse(t *testing.T) {
	f := func(seed uint64, a, b, c uint8) bool {
		rng := util.NewRNG(seed)
		p := 2 + int(c)%4
		g := graph.GenOwnerCompute(rng, 10+int(a)%50, 4+int(b)%12, p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Logf("assign: %v", err)
			return false
		}
		for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS} {
			s, err := sched.ScheduleWith(h, g, assign, p, sched.Unit(), 0)
			if err != nil {
				t.Logf("%v: %v", h, err)
				return false
			}
			for _, capacity := range []int64{s.MinMem(), s.TOT()} {
				mp, err := mem.NewPlan(s, capacity)
				if err != nil {
					t.Logf("%v cap=%d: %v", h, capacity, err)
					return false
				}
				if err := replayPlan(s, mp); err != nil {
					t.Logf("%v cap=%d: %v", h, capacity, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVerifierAgreesWithReplay: the static verifier and the
// independent replay must agree that untouched plans are clean — across
// random programs, heuristics and both capacity levels.
func TestQuickVerifierAgreesWithReplay(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		rng := util.NewRNG(seed)
		p := 2 + int(b)%3
		g := graph.GenOwnerCompute(rng, 10+int(a)%40, 5+int(b)%10, p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Logf("assign: %v", err)
			return false
		}
		for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS} {
			s, err := sched.ScheduleWith(h, g, assign, p, sched.Unit(), 0)
			if err != nil {
				t.Logf("%v: %v", h, err)
				return false
			}
			mp, err := mem.NewPlan(s, s.TOT())
			if err != nil {
				t.Logf("%v: %v", h, err)
				return false
			}
			if res := verify.Check(s, mp); !res.OK() {
				t.Logf("%v: verifier flagged a clean plan: %v", h, res.Err())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func hasClass(res *verify.Result, class verify.Class) bool {
	for _, f := range res.Findings {
		if f.Class == class {
			return true
		}
	}
	return false
}

// TestVerifierCatchesMutatedPlans seeds three defect families into clean
// plans — tampered peak, dropped free, dropped allocation — and requires
// the verifier to flag each with the matching finding class. Each mutation
// gets a freshly compiled plan so defects cannot mask each other.
func TestVerifierCatchesMutatedPlans(t *testing.T) {
	rng := util.NewRNG(23)
	caughtFree, caughtAlloc := false, false
	for trial := 0; trial < 12; trial++ {
		p := 2 + rng.Intn(3)
		g := graph.GenOwnerCompute(rng, 25+rng.Intn(30), 6+rng.Intn(10), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith(sched.MPO, g, assign, p, sched.Unit(), 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := func() *mem.Plan {
			mp, err := mem.NewPlan(s, s.MinMem())
			if err != nil {
				t.Fatal(err)
			}
			return mp
		}

		// Tampered peak: always applicable.
		mp := plan()
		mp.Procs[0].Peak += 1000
		if res := verify.Check(s, mp); res.OK() || !hasClass(res, verify.ClassPeakMismatch) {
			t.Fatalf("trial %d: tampered peak not flagged: %+v", trial, res.Findings)
		}

		// Dropped free: the object outlives its liveness — leak and/or
		// peak mismatch, never clean.
		mp = plan()
	drop:
		for pi := range mp.Procs {
			for mi := range mp.Procs[pi].MAPs {
				if len(mp.Procs[pi].MAPs[mi].Frees) > 0 {
					mp.Procs[pi].MAPs[mi].Frees = mp.Procs[pi].MAPs[mi].Frees[1:]
					if res := verify.Check(s, mp); res.OK() {
						t.Fatalf("trial %d: dropped free not flagged", trial)
					}
					caughtFree = true
					break drop
				}
			}
		}

		// Dropped allocation: some task uses the object before any MAP
		// allocates it.
		mp = plan()
	dropAlloc:
		for pi := range mp.Procs {
			for mi := range mp.Procs[pi].MAPs {
				if len(mp.Procs[pi].MAPs[mi].Allocs) > 0 {
					mp.Procs[pi].MAPs[mi].Allocs = mp.Procs[pi].MAPs[mi].Allocs[1:]
					res := verify.Check(s, mp)
					if res.OK() || !hasClass(res, verify.ClassUseBeforeMAP) {
						t.Fatalf("trial %d: dropped alloc not flagged as use-before-map: %+v", trial, res.Findings)
					}
					caughtAlloc = true
					break dropAlloc
				}
			}
		}
	}
	if !caughtFree || !caughtAlloc {
		t.Fatalf("mutation coverage incomplete: free=%v alloc=%v", caughtFree, caughtAlloc)
	}
}

// TestQuickDTSTheorem2BoundEndToEnd: for random programs, the DTS schedule
// (a) keeps its immediate-free peak within maxPerm + h, where h is the
// slice volatile need of Theorem 2, (b) yields an executable MAP plan at
// exactly that capacity, and (c) passes the verifier's dts-bound checks.
func TestQuickDTSTheorem2BoundEndToEnd(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		rng := util.NewRNG(seed)
		p := 2 + int(b)%3
		g := graph.GenOwnerCompute(rng, 15+int(a)%45, 5+int(b)%12, p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Logf("assign: %v", err)
			return false
		}
		sliceOf, nSlices, err := sched.Slices(g)
		if err != nil {
			t.Logf("slices: %v", err)
			return false
		}
		var h int64
		for _, v := range sched.SliceVolatileNeed(g, assign, p, sliceOf, nSlices) {
			if v > h {
				h = v
			}
		}
		s, err := sched.ScheduleDTS(g, assign, p, sched.Unit(), false, 0)
		if err != nil {
			t.Logf("dts: %v", err)
			return false
		}
		var maxPerm int64
		for _, v := range s.PermSize() {
			if v > maxPerm {
				maxPerm = v
			}
		}
		if s.MinMem() > maxPerm+h {
			t.Logf("DTS peak %d exceeds Theorem-2 bound %d + %d", s.MinMem(), maxPerm, h)
			return false
		}
		mp, err := mem.NewPlan(s, maxPerm+h)
		if err != nil {
			t.Logf("plan: %v", err)
			return false
		}
		if !mp.Executable {
			t.Logf("DTS plan not executable at the Theorem-2 capacity %d", maxPerm+h)
			return false
		}
		if res := verify.Check(s, mp); !res.OK() {
			t.Logf("verifier flagged the DTS plan: %v", res.Err())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHeuristicNamesAndPeakVector pins the user-facing names of the
// heuristics (they appear in trace tables and the paper reports) and the
// per-processor peak vector's relation to MIN_MEM (Definition 5).
func TestHeuristicNamesAndPeakVector(t *testing.T) {
	names := map[sched.Heuristic]string{
		sched.RCP:      "RCP",
		sched.MPO:      "MPO",
		sched.DTS:      "DTS",
		sched.DTSMerge: "DTS+merge",
		sched.TreeMem:  "TreeMem",
	}
	for h, want := range names {
		if got := h.String(); got != want {
			t.Errorf("heuristic %d prints %q, want %q", h, got, want)
		}
	}
	if got := sched.Heuristic(250).String(); got != "?" {
		t.Errorf("unknown heuristic prints %q, want ?", got)
	}
	// The five command-line spellings, in any letter case, and nothing
	// else — in particular not the String() forms above.
	for spelling, want := range map[string]sched.Heuristic{
		"rcp": sched.RCP, "mpo": sched.MPO, "dts": sched.DTS, "dtsmerge": sched.DTSMerge, "treemem": sched.TreeMem,
	} {
		for _, s := range []string{spelling, strings.ToUpper(spelling), strings.ToUpper(spelling[:1]) + spelling[1:]} {
			if got, err := sched.ParseHeuristic(s); err != nil || got != want {
				t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
	}
	for _, s := range []string{"", "DTS+merge", "dts-merge", "heft", " mpo"} {
		if _, err := sched.ParseHeuristic(s); err == nil {
			t.Errorf("ParseHeuristic(%q) accepted", s)
		}
	}

	rng := util.NewRNG(11)
	g := graph.GenOwnerCompute(rng, 24, 8, 3)
	assign, err := sched.OwnerComputeAssign(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 3, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	// The max of PerProcPeaks is MIN_MEM by Definition 5.
	peaks := s.PerProcPeaks()
	if len(peaks) != 3 {
		t.Fatalf("PerProcPeaks returned %d entries for 3 procs", len(peaks))
	}
	var max int64
	for _, pk := range peaks {
		if pk > max {
			max = pk
		}
	}
	if max != s.MinMem() {
		t.Errorf("max of PerProcPeaks %d != MinMem %d", max, s.MinMem())
	}
	if imb := s.PeakImbalance(); imb < 1 || imb > 3 {
		t.Errorf("PeakImbalance %g outside [1, procs]", imb)
	}
}
