package machine

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/util"
)

// TestSimulatorAndExecutorAgree cross-validates the two engines: for the
// same schedule and MAP plan, the discrete-event simulator and the real
// concurrent executor must perform the same number of MAPs per processor
// and both must complete (they share the protocol, so divergence would
// mean one of them implements it wrong).
func TestSimulatorAndExecutorAgree(t *testing.T) {
	rng := util.NewRNG(909)
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(4)
		g := randomOwnerComputeDAG(rng, 30+rng.Intn(50), 8+rng.Intn(12), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
		s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Executable {
			pl, err = mem.NewPlan(s, s.TOT())
			if err != nil || !pl.Executable {
				t.Fatal("TOT plan must be executable")
			}
		}
		compiled := artifact(s, pl, sched.T3D())
		simRes, err := Simulate(compiled, Options{})
		if err != nil {
			t.Fatalf("trial %d sim: %v", trial, err)
		}
		exRes, err := exec.Run(compiled, exec.Config{})
		if err != nil {
			t.Fatalf("trial %d exec: %v", trial, err)
		}
		total := 0
		for q := 0; q < p; q++ {
			total += exRes.MAPsPerProc[q]
		}
		if simRes.AvgMAPs != float64(total)/float64(p) {
			t.Fatalf("trial %d: simulator AvgMAPs %v != executor %v",
				trial, simRes.AvgMAPs, float64(total)/float64(p))
		}
		if simRes.ParallelTime <= 0 {
			t.Fatalf("trial %d: non-positive parallel time", trial)
		}
	}
}

// TestRandomizedEquivalence is the backend-equivalence suite: the
// wall-clock executor and the virtual-clock simulator now drive the same
// protocol core, so every protocol-determined quantity must agree exactly —
// across generated graphs, all three ordering heuristics, and fault
// injection. Three layers:
//
//  1. Fault-free: per-processor MAP counts, per-processor peak memory
//     (permanent + volatile), total messages and total address packages
//     agree between the backends.
//  2. Faulty (25% delayed address packages and data messages): both
//     backends terminate (Theorem 1 under perturbation) and every quantity
//     from layer 1 is identical to the fault-free run.
//  3. Forced suspension (DataFrac 1): every data message goes through the
//     suspended-send queue, making the per-processor suspended-send totals
//     protocol-determined; both backends must report exactly the
//     per-processor send counts of the communication tables.
//
// (Suspended-send totals in layers 1–2 are timing-dependent — a send
// suspends only if it beats its address package — so only the forced mode
// pins them; see DESIGN.md.)
func TestRandomizedEquivalence(t *testing.T) {
	rng := util.NewRNG(4242)
	for trial := 0; trial < 12; trial++ {
		p := 2 + rng.Intn(4)
		g := randomOwnerComputeDAG(rng, 30+rng.Intn(50), 8+rng.Intn(12), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
		s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Executable {
			pl, err = mem.NewPlan(s, s.TOT())
			if err != nil || !pl.Executable {
				t.Fatal("TOT plan must be executable")
			}
		}
		compiled := artifact(s, pl, sched.T3D())

		run := func(f proto.Faults) (*Result, *exec.Result) {
			simRes, err := Simulate(compiled, Options{Faults: f})
			if err != nil {
				t.Fatalf("trial %d sim (faults %+v): %v", trial, f, err)
			}
			exRes, err := exec.Run(compiled, exec.Config{Faults: f})
			if err != nil {
				t.Fatalf("trial %d exec (faults %+v): %v", trial, f, err)
			}
			return simRes, exRes
		}
		check := func(mode string, simRes *Result, exRes *exec.Result) {
			for q := 0; q < p; q++ {
				if simRes.MAPsPerProc[q] != exRes.MAPsPerProc[q] {
					t.Errorf("trial %d %s: proc %d MAPs sim %d != exec %d",
						trial, mode, q, simRes.MAPsPerProc[q], exRes.MAPsPerProc[q])
				}
				if simRes.PeakUnits[q] != exRes.PeakUnits[q] {
					t.Errorf("trial %d %s: proc %d peak sim %d != exec %d",
						trial, mode, q, simRes.PeakUnits[q], exRes.PeakUnits[q])
				}
			}
			if simRes.Messages != exRes.Messages {
				t.Errorf("trial %d %s: messages sim %d != exec %d", trial, mode, simRes.Messages, exRes.Messages)
			}
			if simRes.AddrPackages != exRes.AddrPackages {
				t.Errorf("trial %d %s: addr packages sim %d != exec %d",
					trial, mode, simRes.AddrPackages, exRes.AddrPackages)
			}
		}

		cleanSim, cleanEx := run(proto.Faults{})
		check("clean", cleanSim, cleanEx)

		faultySim, faultyEx := run(proto.Faults{Seed: uint64(trial) + 1, AddrFrac: 0.25, DataFrac: 0.25})
		check("faulty", faultySim, faultyEx)
		// Fault injection delays messages; it must not change any outcome.
		if faultySim.Messages != cleanSim.Messages || faultySim.AddrPackages != cleanSim.AddrPackages {
			t.Errorf("trial %d: faulty sim traffic (%d msgs, %d pkgs) != clean (%d, %d)",
				trial, faultySim.Messages, faultySim.AddrPackages, cleanSim.Messages, cleanSim.AddrPackages)
		}
		for q := 0; q < p; q++ {
			if faultySim.MAPsPerProc[q] != cleanSim.MAPsPerProc[q] || faultySim.PeakUnits[q] != cleanSim.PeakUnits[q] {
				t.Errorf("trial %d: faulty run changed proc %d MAPs/peak", trial, q)
			}
		}

		// Forced suspension: per-proc suspended totals become deterministic
		// (every send suspends exactly once) and must equal the tables.
		allSim, allEx := run(proto.Faults{Seed: 7, DataFrac: 1})
		check("forced", allSim, allEx)
		tables := compiled.Tables()
		for q := 0; q < p; q++ {
			want := 0
			for _, task := range s.Order[q] {
				want += len(tables.SendsOf(task))
			}
			if allSim.SuspendedSends[q] != want || allEx.SuspendedSends[q] != want {
				t.Errorf("trial %d: proc %d forced suspensions sim %d exec %d, want %d (table sends)",
					trial, q, allSim.SuspendedSends[q], allEx.SuspendedSends[q], want)
			}
		}
	}
}

// TestLossDupEquivalence is the loss/duplication layer of the
// backend-equivalence suite: at 25% message loss and 10% duplication the
// reliability layer must make both backends terminate with every
// protocol-determined quantity — per-processor MAP counts, per-processor
// peak memory, delivered-message and address-package totals — identical to
// each other AND to the fault-free run. Because drop/dup verdicts are pure
// functions of (seed, message identity, attempt), the sender-side
// reliability counters must also agree exactly between the backends, the
// retransmit counters must be live, and a zero-Faults run must report zero
// retransmits.
func TestLossDupEquivalence(t *testing.T) {
	rng := util.NewRNG(5151)
	totalRetrans, totalDupDropped := 0, 0
	for trial := 0; trial < 8; trial++ {
		p := 2 + rng.Intn(4)
		g := randomOwnerComputeDAG(rng, 30+rng.Intn(50), 8+rng.Intn(12), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
		s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Executable {
			pl, err = mem.NewPlan(s, s.TOT())
			if err != nil || !pl.Executable {
				t.Fatal("TOT plan must be executable")
			}
		}
		compiled := artifact(s, pl, sched.T3D())

		run := func(f proto.Faults) (*Result, *exec.Result) {
			simRes, err := Simulate(compiled, Options{Faults: f})
			if err != nil {
				t.Fatalf("trial %d sim (faults %+v): %v", trial, f, err)
			}
			exRes, err := exec.Run(compiled, exec.Config{Faults: f})
			if err != nil {
				t.Fatalf("trial %d exec (faults %+v): %v", trial, f, err)
			}
			return simRes, exRes
		}

		cleanSim, cleanEx := run(proto.Faults{})
		for q := 0; q < p; q++ {
			for _, r := range []proto.Reliability{cleanSim.Reliability[q], cleanEx.Reliability[q]} {
				if r.Retransmits != 0 || r.Dropped != 0 || r.DupsSent != 0 || r.DupDropped != 0 {
					t.Errorf("trial %d: zero-Faults run reports reliability activity on proc %d: %+v", trial, q, r)
				}
			}
		}

		lossySim, lossyEx := run(proto.Faults{Seed: uint64(trial) + 1, DropFrac: 0.25, DupFrac: 0.10})
		for q := 0; q < p; q++ {
			if lossySim.MAPsPerProc[q] != cleanSim.MAPsPerProc[q] || lossyEx.MAPsPerProc[q] != cleanSim.MAPsPerProc[q] {
				t.Errorf("trial %d: proc %d MAPs under loss: sim %d exec %d, clean %d",
					trial, q, lossySim.MAPsPerProc[q], lossyEx.MAPsPerProc[q], cleanSim.MAPsPerProc[q])
			}
			if lossySim.PeakUnits[q] != cleanSim.PeakUnits[q] || lossyEx.PeakUnits[q] != cleanSim.PeakUnits[q] {
				t.Errorf("trial %d: proc %d peak under loss: sim %d exec %d, clean %d",
					trial, q, lossySim.PeakUnits[q], lossyEx.PeakUnits[q], cleanSim.PeakUnits[q])
			}
			// Sender-side reliability counters are deterministic functions of
			// the fault plan, so the backends must agree per processor.
			sr, er := lossySim.Reliability[q], lossyEx.Reliability[q]
			if sr.Retransmits != er.Retransmits || sr.Dropped != er.Dropped ||
				sr.DupsSent != er.DupsSent || sr.Acked != er.Acked {
				t.Errorf("trial %d: proc %d sender reliability diverges: sim %+v exec %+v", trial, q, sr, er)
			}
		}
		if lossySim.Messages != cleanSim.Messages || lossyEx.Messages != cleanEx.Messages ||
			lossySim.Messages != lossyEx.Messages {
			t.Errorf("trial %d: delivered messages under loss: sim %d exec %d, clean %d (must all match)",
				trial, lossySim.Messages, lossyEx.Messages, cleanSim.Messages)
		}
		if lossySim.AddrPackages != cleanSim.AddrPackages || lossyEx.AddrPackages != lossySim.AddrPackages {
			t.Errorf("trial %d: addr packages under loss: sim %d exec %d, clean %d (must all match)",
				trial, lossySim.AddrPackages, lossyEx.AddrPackages, cleanSim.AddrPackages)
		}
		simTot := proto.SumReliability(lossySim.Reliability)
		exTot := proto.SumReliability(lossyEx.Reliability)
		if simTot.Retransmits != simTot.Dropped {
			t.Errorf("trial %d: sim %d retransmits for %d drops (every loss must be retransmitted)",
				trial, simTot.Retransmits, simTot.Dropped)
		}
		// Every duplicate a receiver observed was discarded; a duplicated
		// address package deposited after its receiver finished may stay in
		// flight, so DupDropped is bounded by DupsSent rather than equal.
		if simTot.DupDropped > simTot.DupsSent || exTot.DupDropped > exTot.DupsSent {
			t.Errorf("trial %d: more duplicates discarded than injected (sim %+v, exec %+v)", trial, simTot, exTot)
		}
		totalRetrans += simTot.Retransmits + exTot.Retransmits
		totalDupDropped += simTot.DupDropped + exTot.DupDropped
	}
	if totalRetrans == 0 {
		t.Error("25% loss caused no retransmissions across all trials")
	}
	if totalDupDropped == 0 {
		t.Error("10% duplication caused no receiver-side discards across all trials")
	}
}

// TestSuspendedQueueUnderLoss combines forced suspension (DataFrac 1) with
// message loss: every data message goes through the suspended-send queue
// AND a quarter of all transmissions are lost, so every suspended message
// must eventually be retransmitted and delivered exactly once — the
// per-processor suspension totals still equal the communication tables and
// the delivered-message totals still equal the fault-free run, in both
// backends.
func TestSuspendedQueueUnderLoss(t *testing.T) {
	rng := util.NewRNG(7171)
	sawRetrans := false
	for trial := 0; trial < 4; trial++ {
		p := 2 + rng.Intn(4)
		g := randomOwnerComputeDAG(rng, 30+rng.Intn(40), 8+rng.Intn(10), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith([]sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3],
			g, assign, p, sched.T3D(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Executable {
			pl, err = mem.NewPlan(s, s.TOT())
			if err != nil || !pl.Executable {
				t.Fatal("TOT plan must be executable")
			}
		}
		compiled := artifact(s, pl, sched.T3D())
		cleanSim, err := Simulate(compiled, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := proto.Faults{Seed: uint64(trial) + 3, DataFrac: 1, DropFrac: 0.25}
		simRes, err := Simulate(compiled, Options{Faults: f})
		if err != nil {
			t.Fatalf("trial %d sim: %v", trial, err)
		}
		exRes, err := exec.Run(compiled, exec.Config{Faults: f})
		if err != nil {
			t.Fatalf("trial %d exec: %v", trial, err)
		}
		tables := compiled.Tables()
		for q := 0; q < p; q++ {
			want := 0
			for _, task := range s.Order[q] {
				want += len(tables.SendsOf(task))
			}
			if simRes.SuspendedSends[q] != want || exRes.SuspendedSends[q] != want {
				t.Errorf("trial %d: proc %d suspensions sim %d exec %d, want %d (each message suspends exactly once)",
					trial, q, simRes.SuspendedSends[q], exRes.SuspendedSends[q], want)
			}
		}
		if simRes.Messages != cleanSim.Messages || exRes.Messages != cleanSim.Messages {
			t.Errorf("trial %d: delivered messages sim %d exec %d, clean %d (each message delivered exactly once)",
				trial, simRes.Messages, exRes.Messages, cleanSim.Messages)
		}
		for _, tot := range []proto.Reliability{proto.SumReliability(simRes.Reliability), proto.SumReliability(exRes.Reliability)} {
			if tot.Retransmits != tot.Dropped {
				t.Errorf("trial %d: %d retransmits for %d drops", trial, tot.Retransmits, tot.Dropped)
			}
			if tot.Retransmits > 0 {
				sawRetrans = true
			}
		}
	}
	if !sawRetrans {
		t.Error("25% loss caused no retransmissions across all trials")
	}
}

// TestSimulatorDeterminism: identical inputs must give identical results
// (the event queue is fully ordered by (time, seq)).
func TestSimulatorDeterminism(t *testing.T) {
	g := sched.Figure2DAG()
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleMPO(g, assign, 2, sched.T3D())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mem.NewPlan(s, s.MinMem())
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for i := 0; i < 5; i++ {
		res, err := Simulate(artifact(s, pl, sched.T3D()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && (res.ParallelTime != prev.ParallelTime ||
			res.Messages != prev.Messages || res.AddrPackages != prev.AddrPackages) {
			t.Fatalf("run %d differs: %+v vs %+v", i, res, prev)
		}
		prev = res
	}
}

// TestDepositIntoFreedSpaceOneError runs a plan that breaks the paper's
// consistency rule — processor 1 frees its copy of object a before a's only
// version has been sent — under both backends. The failure is detected in
// one place (rma, through the handle both deposit into) and worded in one
// place (proto), so the two runs must fail with the same text.
//
// The free happens-before the deposit in every interleaving: P1 runs X, the
// tampered MAP frees a, then Y produces d; P0's T2 needs d and only then
// sends a. T3, a's reader, is still waiting for e — sent by T4, after T2 on
// P0 — so P1 never gets far enough to miss a itself.
func TestDepositIntoFreedSpaceOneError(t *testing.T) {
	b := graph.NewBuilder()
	e, a := b.Object("e", 1), b.Object("a", 1)
	d, x, r := b.Object("d", 1), b.Object("x", 1), b.Object("r", 1)
	b.Task("X", 1, nil, []graph.ObjID{x})
	b.Task("Y", 1, []graph.ObjID{x}, []graph.ObjID{d})
	b.Task("T2", 1, []graph.ObjID{d}, []graph.ObjID{a})
	b.Task("T4", 1, []graph.ObjID{a}, []graph.ObjID{e})
	b.Task("T3", 1, []graph.ObjID{e, a}, []graph.ObjID{r})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for o, owner := range map[graph.ObjID]graph.Proc{e: 0, a: 0, d: 1, x: 1, r: 1} {
		g.Objects[o].Owner = owner
	}
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mem.NewPlan(s, s.TOT())
	if err != nil || !pl.Executable {
		t.Fatalf("plan: %v", err)
	}
	maps := pl.Procs[1].MAPs
	if len(maps) != 1 || len(s.Order[1]) != 3 {
		t.Fatalf("want one MAP and three tasks on processor 1, got %d and %d", len(maps), len(s.Order[1]))
	}
	maps[0].CoverEnd = 1
	pl.Procs[1].MAPs = append(maps, mem.MAP{Pos: 1, Frees: []graph.ObjID{a}, CoverEnd: 3})

	compiled := artifact(s, pl, sched.Unit())
	_, simErr := Simulate(compiled, Options{})
	_, exErr := exec.Run(compiled, exec.Config{})
	if simErr == nil || exErr == nil {
		t.Fatalf("both runs must fail: simulator %v, executor %v", simErr, exErr)
	}
	if simErr.Error() != exErr.Error() {
		t.Fatalf("one failure, two texts:\nsimulator: %v\nexecutor:  %v", simErr, exErr)
	}
	if !strings.Contains(simErr.Error(), `object "a"`) || !strings.Contains(simErr.Error(), "freed") {
		t.Fatalf("error does not name the freed object: %v", simErr)
	}
}
