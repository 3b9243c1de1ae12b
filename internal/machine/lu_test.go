package machine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/proto"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/util"
)

// TestLULargePanelsEquivalence runs LU at a shape whose dense panels are
// all at least rma.LargePayload long — n = 256, panels of 16 columns, on
// 4 processors, as factor_lu runs it — so every received panel copy gets
// its payload at its first deposit and drops it after its last local
// reader. At MinMem and unconstrained, clean and at 25 % loss with 10 %
// duplication, the executed panels must equal the sequential factor bit
// for bit, and each processor's MAPs and booked peak must equal the
// simulator's: deferring a payload books nothing differently.
func TestLULargePanelsEquivalence(t *testing.T) {
	rng := util.NewRNG(256)
	a := sparse.UnsymValues(sparse.AddRandomUnsymLinks(sparse.Grid2D(16, 16, true), 64, rng), rng)
	const p = 4
	pr, err := lu.Build(a, lu.Options{Procs: p, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for o := range pr.G.Objects {
		if n := pr.BufLen(graph.ObjID(o)); n < rma.LargePayload {
			t.Fatalf("panel %d is %d float64s, below rma.LargePayload (%d): the test would defer nothing", o, n, rma.LargePayload)
		}
	}
	want, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	assign, err := sched.OwnerComputeAssign(pr.G, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleWith(sched.MPO, pr.G, assign, p, sched.T3D(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, compiled := range randomPlans(t, s) {
		for _, f := range []proto.Faults{{}, {Seed: 9, DropFrac: 0.25, DupFrac: 0.1}} {
			at := fmt.Sprintf("capacity %d, faults %+v", compiled.Capacity, f)
			res, err := exec.Run(compiled, exec.Config{Kernel: pr.Kernel, Init: pr.InitObject, BufLen: pr.BufLen, Faults: f})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			for o, w := range want {
				if got := res.Objects[o]; !slices.EqualFunc(got, w, sameBits) {
					t.Fatalf("%s: panel %d differs from the sequential factor", at, o)
				}
			}
			sim, err := Simulate(compiled, Options{Faults: f})
			if err != nil {
				t.Fatalf("%s: simulate: %v", at, err)
			}
			if !slices.Equal(res.MAPsPerProc, sim.MAPsPerProc) || !slices.Equal(res.PeakUnits, sim.PeakUnits) {
				t.Errorf("%s: MAPs %v, peaks %v; the simulator's %v, %v", at,
					res.MAPsPerProc, res.PeakUnits, sim.MAPsPerProc, sim.PeakUnits)
			}
		}
	}
}
