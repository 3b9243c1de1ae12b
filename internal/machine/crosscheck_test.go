package machine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/util"
)

// randomSchedule schedules a random program with one of the three
// ordering heuristics, chosen by trial.
func randomSchedule(t *testing.T, g *graph.DAG, p, trial int) *sched.Schedule {
	t.Helper()
	assign, err := sched.OwnerComputeAssign(g, p)
	if err != nil {
		t.Fatal(err)
	}
	h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
	s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomPlans compiles s at the two capacities the random-DAG suites run:
// MinMem (left out when it is not executable, so TOT stands in) and TOT.
func randomPlans(t *testing.T, s *sched.Schedule) []*plan.Artifact {
	t.Helper()
	var out []*plan.Artifact
	for _, c := range []int64{s.MinMem(), s.TOT()} {
		pl, err := mem.NewPlan(s, c)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Executable {
			out = append(out, artifact(s, pl, sched.T3D()))
		} else if c == s.TOT() {
			t.Fatal("TOT plan must be executable")
		}
	}
	return out
}

// runBoth runs a in the simulator, structure-only, and on the executor
// with g's checksum kernel (graph.Checksum), both under f, and fails
// unless every object the executor returns is bit-identical to the
// sequential run: Theorem 1 and data consistency, checked on the data.
func runBoth(t *testing.T, at string, g *graph.DAG, a *plan.Artifact, f proto.Faults) (*Result, *exec.Result) {
	t.Helper()
	simRes, err := Simulate(a, Options{Faults: f})
	if err != nil {
		t.Fatalf("%s sim (faults %+v): %v", at, f, err)
	}
	kernel, init, want := graph.Checksum(g)
	exRes, err := exec.Run(a, exec.Config{Kernel: kernel, Init: init, Faults: f})
	if err != nil {
		t.Fatalf("%s exec (faults %+v): %v", at, f, err)
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for o, w := range want {
		if got := exRes.Objects[graph.ObjID(o)]; !slices.EqualFunc(got, w, sameBits) {
			t.Errorf("%s (faults %+v): object %d is %v, sequential %v", at, f, o, got, w)
		}
	}
	return simRes, exRes
}

// sameCounts fails unless two runs agree on every protocol-determined
// count: MAPs and peak memory per processor, delivered messages and
// address packages.
func sameCounts(t *testing.T, what string, a, b proto.Summary) {
	t.Helper()
	if !slices.Equal(a.MAPsPerProc, b.MAPsPerProc) || !slices.Equal(a.PeakUnits, b.PeakUnits) ||
		a.Messages != b.Messages || a.AddrPackages != b.AddrPackages {
		t.Errorf("%s: MAPs %v / %v, peaks %v / %v, messages %d / %d, address packages %d / %d", what,
			a.MAPsPerProc, b.MAPsPerProc, a.PeakUnits, b.PeakUnits, a.Messages, b.Messages, a.AddrPackages, b.AddrPackages)
	}
}

// tableSends is the number of data messages processor q's tasks send, by
// a's communication tables.
func tableSends(a *plan.Artifact, q int) int {
	n := 0
	for _, task := range a.Schedule.Order[q] {
		n += len(a.Tables().SendsOf(task))
	}
	return n
}

// TestRandomizedEquivalence is the backend-equivalence suite: the
// wall-clock executor and the virtual-clock simulator drive the same
// protocol core, so every protocol-determined quantity must agree exactly —
// across generated graphs, all three ordering heuristics, MinMem and TOT,
// and fault injection — and the executor, running numeric with the
// checksum kernel, must end with the sequential run's data bit for bit
// (runBoth). Three layers:
//
//  1. Fault-free: per-processor MAP counts, per-processor peak memory
//     (permanent + volatile), total messages and total address packages
//     agree between the backends.
//  2. Faulty — 25% delayed address packages and data messages, and
//     separately 25% loss with 10% duplication: both backends terminate
//     (Theorem 1 under perturbation) and every quantity from layer 1 is
//     identical to the fault-free run.
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
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(50), 8+rng.Intn(12), p)
		s := randomSchedule(t, g, p, trial)
		for _, compiled := range randomPlans(t, s) {
			at := fmt.Sprintf("trial %d at %d", trial, compiled.Capacity)
			cleanSim, cleanEx := runBoth(t, at, g, compiled, proto.Faults{})
			sameCounts(t, at+" clean", cleanSim.Summary, cleanEx.Summary)
			for _, faulty := range []struct {
				mode string
				f    proto.Faults
			}{
				{"delayed", proto.Faults{Seed: uint64(trial) + 1, AddrFrac: 0.25, DataFrac: 0.25}},
				{"lossy", proto.Faults{Seed: uint64(trial) + 1, DropFrac: 0.25, DupFrac: 0.10}},
			} {
				faultySim, faultyEx := runBoth(t, at, g, compiled, faulty.f)
				sameCounts(t, at+" "+faulty.mode, faultySim.Summary, faultyEx.Summary)
				// Fault injection delays, drops and duplicates messages; it
				// must not change any outcome.
				sameCounts(t, at+" "+faulty.mode+" against clean", faultySim.Summary, cleanSim.Summary)
			}

			// Forced suspension: per-proc suspended totals become deterministic
			// (every send suspends exactly once) and must equal the tables.
			allSim, allEx := runBoth(t, at, g, compiled, proto.Faults{Seed: 7, DataFrac: 1})
			sameCounts(t, at+" forced", allSim.Summary, allEx.Summary)
			for q := 0; q < p; q++ {
				want := tableSends(compiled, q)
				if allSim.SuspendedSends[q] != want || allEx.SuspendedSends[q] != want {
					t.Errorf("%s: proc %d forced suspensions sim %d exec %d, want %d (table sends)",
						at, q, allSim.SuspendedSends[q], allEx.SuspendedSends[q], want)
				}
			}
		}
	}
}

// TestLossDupEquivalence is the loss/duplication layer of the
// backend-equivalence suite: at 25% message loss and 10% duplication the
// reliability layer must make both backends terminate with every
// protocol-determined quantity — per-processor MAP counts, per-processor
// peak memory, delivered-message and address-package totals — identical to
// each other AND to the fault-free run, and the executor's data
// bit-identical to the sequential run (runBoth). Because drop/dup verdicts
// are pure functions of (seed, message identity, attempt), the sender-side
// reliability counters must also agree exactly between the backends, the
// retransmit counters must be live, and a zero-Faults run must report zero
// retransmits.
//
// The last trials are the large layer: every object is rma.LargePayload
// units, and so float64s, longer. Each received copy then gets its payload
// at its first deposit and drops it after its last local reader, and the
// data check covers both; a duplicate that lands after the drop must be
// discarded like any other (TestLargeCopyPayloadLifecycle pins that order).
func TestLossDupEquivalence(t *testing.T) {
	rng := util.NewRNG(5151)
	totalRetrans, totalDupDropped := 0, 0
	const trials, large = 11, 8 // trials from large on carry large payloads
	for trial := 0; trial < trials; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(50), 8+rng.Intn(12), p)
		if trial >= large {
			for i := range g.Objects {
				g.Objects[i].Size += rma.LargePayload
			}
		}
		s := randomSchedule(t, g, p, trial)
		for _, compiled := range randomPlans(t, s) {
			at := fmt.Sprintf("trial %d at %d", trial, compiled.Capacity)
			cleanSim, cleanEx := runBoth(t, at, g, compiled, proto.Faults{})
			for q := 0; q < p; q++ {
				for _, r := range []proto.Reliability{cleanSim.Reliability[q], cleanEx.Reliability[q]} {
					if r.Retransmits != 0 || r.Dropped != 0 || r.DupsSent != 0 || r.DupDropped != 0 {
						t.Errorf("%s: zero-Faults run reports reliability activity on proc %d: %+v", at, q, r)
					}
				}
			}

			lossySim, lossyEx := runBoth(t, at, g, compiled, proto.Faults{Seed: uint64(trial) + 1, DropFrac: 0.25, DupFrac: 0.10})
			sameCounts(t, at+" clean", cleanSim.Summary, cleanEx.Summary)
			sameCounts(t, at+" lossy", lossySim.Summary, lossyEx.Summary)
			sameCounts(t, at+" lossy against clean", lossySim.Summary, cleanSim.Summary)
			for q := 0; q < p; q++ {
				// Sender-side reliability counters are deterministic functions of
				// the fault plan, so the backends must agree per processor.
				sr, er := lossySim.Reliability[q], lossyEx.Reliability[q]
				if sr.Retransmits != er.Retransmits || sr.Dropped != er.Dropped ||
					sr.DupsSent != er.DupsSent || sr.Acked != er.Acked {
					t.Errorf("%s: proc %d sender reliability diverges: sim %+v exec %+v", at, q, sr, er)
				}
			}
			simTot := proto.SumReliability(lossySim.Reliability)
			exTot := proto.SumReliability(lossyEx.Reliability)
			if simTot.Retransmits != simTot.Dropped {
				t.Errorf("%s: sim %d retransmits for %d drops (every loss must be retransmitted)",
					at, simTot.Retransmits, simTot.Dropped)
			}
			// Every duplicate a receiver observed was discarded; a duplicated
			// address package deposited after its receiver finished may stay in
			// flight, so DupDropped is bounded by DupsSent rather than equal.
			if simTot.DupDropped > simTot.DupsSent || exTot.DupDropped > exTot.DupsSent {
				t.Errorf("%s: more duplicates discarded than injected (sim %+v, exec %+v)", at, simTot, exTot)
			}
			totalRetrans += simTot.Retransmits + exTot.Retransmits
			totalDupDropped += simTot.DupDropped + exTot.DupDropped
		}
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
// per-processor suspension totals still equal the communication tables,
// the delivered-message totals still equal the fault-free run, in both
// backends, and the executor's data is the sequential run's (runBoth).
func TestSuspendedQueueUnderLoss(t *testing.T) {
	rng := util.NewRNG(7171)
	sawRetrans := false
	for trial := 0; trial < 4; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(40), 8+rng.Intn(10), p)
		s := randomSchedule(t, g, p, trial)
		for _, compiled := range randomPlans(t, s) {
			at := fmt.Sprintf("trial %d at %d", trial, compiled.Capacity)
			cleanSim, err := Simulate(compiled, Options{})
			if err != nil {
				t.Fatal(err)
			}
			simRes, exRes := runBoth(t, at, g, compiled, proto.Faults{Seed: uint64(trial) + 3, DataFrac: 1, DropFrac: 0.25})
			for q := 0; q < p; q++ {
				want := tableSends(compiled, q)
				if simRes.SuspendedSends[q] != want || exRes.SuspendedSends[q] != want {
					t.Errorf("%s: proc %d suspensions sim %d exec %d, want %d (each message suspends exactly once)",
						at, q, simRes.SuspendedSends[q], exRes.SuspendedSends[q], want)
				}
			}
			if simRes.Messages != cleanSim.Messages || exRes.Messages != cleanSim.Messages {
				t.Errorf("%s: delivered messages sim %d exec %d, clean %d (each message delivered exactly once)",
					at, simRes.Messages, exRes.Messages, cleanSim.Messages)
			}
			for _, tot := range []proto.Reliability{proto.SumReliability(simRes.Reliability), proto.SumReliability(exRes.Reliability)} {
				if tot.Retransmits != tot.Dropped {
					t.Errorf("%s: %d retransmits for %d drops", at, tot.Retransmits, tot.Dropped)
				}
				if tot.Retransmits > 0 {
					sawRetrans = true
				}
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
