package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/util"
)

// The tests here cover what a run hands on: a released result's permanent
// payload to the next run, a dropped large copy to the next large copy, a
// recycled slab to the next allocation event — each of which must reach an
// Init zeroed and a kernel whole, and none of which may touch a result
// nobody released.

// inputsProgram is a program with volatile inputs: processor 1 reads eight
// objects that processor 0 owns and no task writes, so each of their copies
// is exported under no channel and filled by Init when its MAP allocates
// it. At MinMem the copies are allocated and freed over several MAPs, so a
// later MAP carves them from a slab an earlier one freed.
func inputsProgram(t *testing.T) *plan.Artifact {
	t.Helper()
	b := graph.NewBuilder()
	var xs []graph.ObjID
	for i := 0; i < 8; i++ {
		xs = append(xs, b.Object(fmt.Sprintf("x%d", i), 4))
	}
	y := b.Object("y", 4)
	for i, x := range xs {
		b.Task(fmt.Sprintf("t%d", i), 1, []graph.ObjID{x, y}, []graph.ObjID{y})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		g.Objects[x].Owner = 0
	}
	g.Objects[y].Owner = 1
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mem.NewPlan(s, s.MinMem())
	if err != nil || !pl.Executable {
		t.Fatalf("MinMem plan: %v", err)
	}
	if pl.TotalMAPs() < 3 {
		t.Fatalf("%d MAPs: the inputs must be allocated over several", pl.TotalMAPs())
	}
	return artifact(s, pl)
}

// TestInitBuffersArriveZeroed: every buffer that reaches Init is zero —
// permanent objects carved from a fresh payload, from a released result's
// payload and from a kept result's successor's, and volatile inputs carved
// from slabs recycled within the run and across runs. The Init here fails
// on any nonzero word, then fills the buffer, so the next user of its
// memory finds it dirty.
func TestInitBuffersArriveZeroed(t *testing.T) {
	var dirty, inits atomic.Int64
	zeroed := func(fill InitFunc) InitFunc {
		return func(o graph.ObjID, buf []float64) {
			inits.Add(1)
			for _, v := range buf {
				if v != 0 {
					dirty.Add(1)
					break
				}
			}
			fill(o, buf)
		}
	}
	check := func(what string) {
		t.Helper()
		if n := dirty.Swap(0); n > 0 {
			t.Fatalf("%s: %d buffers reached Init holding nonzero words", what, n)
		}
	}

	inputs := inputsProgram(t)
	mix := func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
		g := inputs.Schedule.G
		y := get(g.Writes(tk)[0])
		for _, o := range g.Reads(tk) {
			for k, v := range get(o) {
				y[k] += v
			}
		}
		return nil
	}
	objects := int64(inputs.Schedule.G.NumObjects())
	for round := 0; round < 6; round++ {
		inits.Store(0)
		res, err := Run(inputs, Config{Kernel: mix, Init: zeroed(func(o graph.ObjID, buf []float64) {
			for k := range buf {
				buf[k] = float64(int(o)*1000 + k + 1)
			}
		}), BlockTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if n := inits.Load(); n <= objects {
			t.Fatalf("round %d: %d Init calls for %d objects: no volatile input was filled", round, n, objects)
		}
		check(fmt.Sprintf("inputs, round %d", round))
		if round%2 == 0 {
			res.Release()
		}
	}

	pr, a, _ := recycleProblem(t)
	for round := 0; round < 6; round++ {
		res, err := Run(a, Config{Kernel: pr.Kernel, Init: zeroed(pr.InitObject), BlockTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Cholesky, round %d", round))
		if round%3 != 2 {
			res.Release()
		}
	}
}

// TestReleasedResultIsReused: a released result's permanent payload backs
// a later run, and a result nobody released keeps its bits through ten
// further runs that release theirs.
func TestReleasedResultIsReused(t *testing.T) {
	pr, a, want := recycleProblem(t)
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject, BlockTimeout: 5 * time.Second}
	run := func() *Result {
		t.Helper()
		res, err := Run(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(res, want); err != nil {
			t.Fatal(err)
		}
		return res
	}

	kept := run()
	snapshot := make(map[graph.ObjID][]uint64, len(kept.Objects))
	for o, d := range kept.Objects {
		for _, v := range d {
			snapshot[o] = append(snapshot[o], math.Float64bits(v))
		}
	}
	// The pool's per-processor caches may hand a slab to another worker's
	// Get only from their shared halves, and the race detector drops a
	// quarter of what is put back: a few rounds make reuse certain.
	reused := false
	res := run()
	for i := 0; i < 10; i++ {
		released := make(map[*float64]bool)
		for _, box := range res.owned {
			released[&(*box)[0]] = true
		}
		res.Release()
		if res.Objects != nil || res.owned != nil {
			t.Fatal("Release left the result's buffers reachable")
		}
		res = run()
		for _, box := range res.owned {
			reused = reused || released[&(*box)[0]]
		}
	}
	if !reused {
		t.Error("no run took back a permanent payload released before it")
	}
	for o, bits := range snapshot {
		for k, v := range kept.Objects[o] {
			if math.Float64bits(v) != bits[k] {
				t.Fatalf("word %d of object %d of the kept result changed under later runs", k, o)
			}
		}
	}
}

// TestLateDuplicatesDiscarded runs the factor with every data message and
// address package duplicated. A data duplicate waits one RTO behind its
// channel, so many land after their receiver read, dropped or freed the
// copy; each must be discarded by its sequence number alone. A Put that
// accepted a repeated sequence number would count a second arrival or
// deposit into a dropped payload or a freed buffer, and fail the run.
func TestLateDuplicatesDiscarded(t *testing.T) {
	pr, a, want := recycleProblem(t)
	for seed := uint64(1); seed <= 4; seed++ {
		f := proto.Faults{Seed: seed, DupFrac: 1}
		res, err := Run(a, Config{Kernel: pr.Kernel, Init: pr.InitObject, BlockTimeout: 5 * time.Second, Faults: f})
		if err != nil {
			t.Fatalf("faults %+v: %v", f, err)
		}
		if err := sameBits(res, want); err != nil {
			t.Fatalf("faults %+v: %v", f, err)
		}
		tot := proto.SumReliability(res.Reliability)
		if tot.DupsSent < res.Messages || tot.DupDropped < res.Messages {
			t.Fatalf("faults %+v: %d duplicates sent and %d discarded for %d messages; every data message is duplicated",
				f, tot.DupsSent, tot.DupDropped, res.Messages)
		}
	}
}

// TestLUExecuteAllocates: a dropped large copy is the next large copy.
// factor_lu's shape (LU n=1 496, block 16, 4 processors, MPO, full
// memory) receives ~54 MB of panel copies per execute, each dead after its
// last local reader; taken back from the payload pool they cost about
// their overlap. The result, which no one releases here, is ~18 MB of
// panels.
func TestLUExecuteAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put back under the race detector")
	}
	if testing.Short() {
		t.Skip("a 1 496-column LU")
	}
	const n, procs = 1496, 4
	rng := util.NewRNG(1)
	nx, ny := sparse.GridShape(n)
	m := sparse.UnsymValues(sparse.AddRandomUnsymLinks(sparse.Grid2D(nx, ny, true), n/4, rng), rng)
	pr, err := lu.Build(m, lu.Options{Procs: procs, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, pr.G, procs, sched.MPO)
	pl, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	a := artifact(s, pl)
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject, BufLen: pr.BufLen}
	var ms runtime.MemStats
	runs := make([]uint64, 3)
	for i := -1; i < len(runs); i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := Run(a, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i >= 0 {
			runs[i] = ms.TotalAlloc - before
		}
	}
	slices.Sort(runs)
	const bound = 25 << 20
	t.Logf("an execute allocates %.1f MB (runs %v); bound %.0f MB", float64(runs[1])/(1<<20), runs, float64(bound)/(1<<20))
	if runs[1] > bound {
		t.Fatalf("an LU execute allocates %d B, want at most %d", runs[1], bound)
	}
}
