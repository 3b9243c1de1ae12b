package plan_test

import (
	"fmt"
	"testing"

	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/rapid"
)

// TestEncodedLenMatchesEncode: the counted length is the encoded length, so
// a plan cache that counts instead of encoding charges the same budget
// units. Clean factorization plans at three sizes, then the graph zoo under
// every heuristic.
func TestEncodedLenMatchesEncode(t *testing.T) {
	check := func(name string, a *plan.Artifact) {
		t.Helper()
		enc, err := plan.Encode(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := plan.EncodedLen(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(enc) {
			t.Fatalf("%s: EncodedLen %d, len(Encode) %d", name, n, len(enc))
		}
		t.Logf("%s: %d bytes", name, n)
	}
	for _, n := range []int{120, 400, 1496} {
		a, err := factor.Matrix("chol", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := factor.Build("chol", a, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		opt := rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge}
		if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, 40); err != nil {
			t.Fatal(err)
		}
		pl, err := rapid.Compile(pb.Program, opt)
		if err != nil {
			t.Fatal(err)
		}
		pl.Fingerprint = rapid.Fingerprint(pb.Program, opt)
		check(fmt.Sprintf("chol n=%d", n), pl)
	}
	for _, sc := range graph.Scenarios() {
		for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem} {
			g, err := sc.Build(3, 200)
			if err != nil {
				t.Fatal(err)
			}
			if !sc.PresetOwners {
				sched.CyclicOwners(g, 3)
			}
			assign, err := sched.OwnerComputeAssign(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.ScheduleWith(h, g, assign, 3, sched.T3D(), 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := mem.NewPlan(s, s.TOT())
			if err != nil {
				t.Fatal(err)
			}
			check(sc.Name+" "+h.String(), &plan.Artifact{Schedule: s, Mem: mp, Model: sched.T3D(), Capacity: s.TOT()})
		}
	}
}
