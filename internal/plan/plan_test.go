package plan

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
)

// buildArtifact compiles a small irregular program end to end.
func buildArtifact(t *testing.T, h sched.Heuristic, procs int) *Artifact {
	t.Helper()
	b := graph.NewBuilder()
	n := 6
	objs := make([]graph.ObjID, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			objs[i*n+j] = b.Object(blockName(i, j), int64(4+i+j))
		}
	}
	for k := 0; k < n; k++ {
		b.Task(taskName("f", k, k), 100, nil, []graph.ObjID{objs[k*n+k]})
		for i := k + 1; i < n; i++ {
			b.Task(taskName("s", i, k), 50,
				[]graph.ObjID{objs[k*n+k]}, []graph.ObjID{objs[i*n+k]})
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j <= i; j++ {
				b.CommutativeTask(taskName("u", i, j)+taskName("", k, 0), 25,
					[]graph.ObjID{objs[i*n+k], objs[j*n+k]}, []graph.ObjID{objs[i*n+j]})
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, procs)
	assign, err := sched.OwnerComputeAssign(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	model := sched.T3D()
	s, err := sched.ScheduleWith(h, g, assign, procs, model, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	capacity := s.MinMem() + 10
	mp, err := mem.NewPlan(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Fingerprint: Fingerprint(g, []byte{byte(h), byte(procs)}),
		Model:       model,
		Capacity:    capacity,
		Schedule:    s,
		Mem:         mp,
	}
}

func blockName(i, j int) string {
	return "A[" + string(rune('0'+i)) + "," + string(rune('0'+j)) + "]"
}

func taskName(k string, i, j int) string {
	return k + string(rune('0'+i)) + string(rune('0'+j))
}

func TestRoundTripIdentity(t *testing.T) {
	for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem} {
		a := buildArtifact(t, h, 3)
		enc1, err := Encode(a)
		if err != nil {
			t.Fatalf("%v: encode: %v", h, err)
		}
		got, err := Decode(enc1)
		if err != nil {
			t.Fatalf("%v: decode: %v", h, err)
		}
		enc2, err := Encode(got)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", h, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("%v: round trip is not byte-stable", h)
		}
		if got.Fingerprint != a.Fingerprint {
			t.Errorf("%v: fingerprint changed", h)
		}
		if got.Capacity != a.Capacity || got.Model != a.Model {
			t.Errorf("%v: capacity/model changed", h)
		}
		checkArtifactEqual(t, a, got)
	}
}

// checkArtifactEqual compares the decoded artifact structurally with the
// original, field by field.
func checkArtifactEqual(t *testing.T, want, got *Artifact) {
	t.Helper()
	ws, gs := want.Schedule, got.Schedule
	if !reflect.DeepEqual(ws.Assign, gs.Assign) {
		t.Error("Assign differs")
	}
	if !reflect.DeepEqual(ws.Order, gs.Order) {
		t.Error("Order differs")
	}
	if !reflect.DeepEqual(ws.Pos, gs.Pos) {
		t.Error("Pos differs")
	}
	if ws.Makespan != gs.Makespan || ws.Heuristic != gs.Heuristic {
		t.Error("Makespan/Heuristic differs")
	}
	if !reflect.DeepEqual(ws.Slices, gs.Slices) || ws.NumSlices != gs.NumSlices {
		t.Error("Slices differ")
	}
	if !reflect.DeepEqual(ws.G.Tasks, gs.G.Tasks) {
		t.Error("Tasks differ")
	}
	if !reflect.DeepEqual(ws.G.Objects, gs.G.Objects) {
		t.Error("Objects differ")
	}
	if ws.G.NumEdges() != gs.G.NumEdges() {
		t.Errorf("edge count %d != %d", ws.G.NumEdges(), gs.G.NumEdges())
	}
	for ti := 0; ti < ws.G.NumTasks(); ti++ {
		if !reflect.DeepEqual(ws.G.Out(graph.TaskID(ti)), gs.G.Out(graph.TaskID(ti))) {
			t.Fatalf("out-edges of task %d differ", ti)
		}
	}
	wm, gm := want.Mem, got.Mem
	if wm.Capacity != gm.Capacity || wm.Executable != gm.Executable {
		t.Error("mem plan header differs")
	}
	for p := range wm.Procs {
		wp, gp := &wm.Procs[p], &gm.Procs[p]
		if wp.Peak != gp.Peak || wp.Executable != gp.Executable || wp.FailPos != gp.FailPos {
			t.Errorf("proc %d plan header differs", p)
		}
		if len(wp.MAPs) != len(gp.MAPs) {
			t.Fatalf("proc %d: %d MAPs != %d", p, len(wp.MAPs), len(gp.MAPs))
		}
		for mi := range wp.MAPs {
			w, g := &wp.MAPs[mi], &gp.MAPs[mi]
			if w.Pos != g.Pos || w.CoverEnd != g.CoverEnd ||
				!reflect.DeepEqual(w.Frees, g.Frees) || !reflect.DeepEqual(w.Allocs, g.Allocs) {
				t.Errorf("proc %d MAP %d differs", p, mi)
			}
			if !slices.Equal(w.Notify.Dst, g.Notify.Dst) || !slices.Equal(w.Notify.Off, g.Notify.Off) ||
				!slices.Equal(w.Notify.Objs, g.Notify.Objs) {
				t.Errorf("proc %d MAP %d notify differs", p, mi)
			}
		}
	}
}

func TestEncodeDeterministicAcrossCompiles(t *testing.T) {
	a1 := buildArtifact(t, sched.MPO, 4)
	a2 := buildArtifact(t, sched.MPO, 4)
	e1, err := Encode(a1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Encode(a2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Error("two identical compilations serialized differently")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a := buildArtifact(t, sched.RCP, 2)
	enc, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in every region of the payload.
	for _, off := range []int{0, 4, len(enc) / 3, len(enc) / 2, len(enc) - 40, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x5a
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at offset %d not detected", off)
		}
	}
	// Truncations.
	for _, n := range []int{0, 3, 10, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), enc...)
	bad[4] = 0x7f // version varint follows the 4-byte magic
	if _, err := Decode(bad); err == nil {
		t.Error("wrong version not detected")
	}
}

// TestDecodeRejectsUnknownHeuristic: a well-formed payload whose heuristic
// id names no scheduler is refused by the decoder, as edge kinds are.
func TestDecodeRejectsUnknownHeuristic(t *testing.T) {
	a := buildArtifact(t, sched.MPO, 2)
	a.Schedule.Heuristic = 200
	enc, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	const want = "plan: bad heuristic 200"
	if _, err := Decode(enc); err == nil || err.Error() != want {
		t.Errorf("Decode: err %v, want %q", err, want)
	}
}

// TestDecodeRejectsUnorderedNotify: a MAP's address packages are encoded
// in strictly ascending destination order, so a payload that names a
// destination twice, or out of order, is not an encoding of any plan —
// decoding it used to let the later list replace the earlier one, so two
// byte strings decoded to one plan. The payload is written field by field
// here: the plan types cannot hold such a list.
func TestDecodeRejectsUnorderedNotify(t *testing.T) {
	a := buildArtifact(t, sched.MPO, 3)
	for _, dests := range [][]graph.Proc{{1, 1}, {2, 1}} {
		e := &encoder{}
		e.raw(magic[:])
		e.u64(Version)
		e.str(a.Fingerprint)
		encodeModel(e, a.Model)
		e.i64(a.Capacity)
		encodeDAG(e, a.Schedule.G)
		encodeSchedule(e, a.Schedule)
		pl := a.Mem
		e.i64(pl.Capacity)
		e.bool(pl.Executable)
		for p := range pl.Procs {
			pp := &pl.Procs[p]
			e.i64(pp.Peak)
			e.bool(pp.Executable)
			e.i32(pp.FailPos)
			e.u64(uint64(len(pp.MAPs)))
			for mi := range pp.MAPs {
				m := &pp.MAPs[mi]
				e.i32(m.Pos)
				e.i32(m.CoverEnd)
				e.ids(m.Frees)
				e.ids(m.Allocs)
				if p != 0 || mi != 0 {
					e.u64(0)
					continue
				}
				e.u64(uint64(len(dests)))
				for _, q := range dests {
					e.i32(q)
					e.ids(nil)
				}
			}
		}
		sum := sha256.Sum256(e.b)
		e.raw(sum[:])
		if _, err := Decode(e.b); err == nil || !strings.Contains(err.Error(), "plan: notify destinations out of order") {
			t.Errorf("destinations %v: err %v, want notify destinations out of order", dests, err)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	build := func(extraObj bool, size int64) *graph.DAG {
		b := graph.NewBuilder()
		x := b.Object("x", size)
		y := b.Object("y", 8)
		b.Task("p", 10, nil, []graph.ObjID{x})
		b.Task("c", 20, []graph.ObjID{x}, []graph.ObjID{y})
		if extraObj {
			z := b.Object("z", 8)
			b.Task("t", 5, []graph.ObjID{y}, []graph.ObjID{z})
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sched.CyclicOwners(g, 2)
		return g
	}
	base := Fingerprint(build(false, 8), []byte{1})
	if base != Fingerprint(build(false, 8), []byte{1}) {
		t.Error("fingerprint not reproducible")
	}
	if base == Fingerprint(build(false, 16), []byte{1}) {
		t.Error("object size change not reflected")
	}
	if base == Fingerprint(build(true, 8), []byte{1}) {
		t.Error("structure change not reflected")
	}
	if base == Fingerprint(build(false, 8), []byte{2}) {
		t.Error("options change not reflected")
	}
	g := build(false, 8)
	fpBefore := Fingerprint(g, []byte{1})
	g.Objects[0].Owner = 1 - g.Objects[0].Owner
	if fpBefore == Fingerprint(g, []byte{1}) {
		t.Error("owner change not reflected")
	}
}

// TestCompileMergeBudget: Compile merges DTS slices within the capacity
// minus the largest permanent footprint, and an object no processor owns
// (a read-only input) adds to no footprint.
func TestCompileMergeBudget(t *testing.T) {
	const procs, n = 3, 6
	b := graph.NewBuilder()
	in := b.Object("in", 40)
	objs := make([]graph.ObjID, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			objs[i*n+j] = b.Object(blockName(i, j), int64(4+i+j))
		}
	}
	for k := 0; k < n; k++ {
		b.Task(taskName("f", k, k), 100, []graph.ObjID{in}, []graph.ObjID{objs[k*n+k]})
		for i := k + 1; i < n; i++ {
			b.Task(taskName("s", i, k), 50, []graph.ObjID{objs[k*n+k]}, []graph.ObjID{objs[i*n+k]})
			for j := k + 1; j <= i; j++ {
				b.CommutativeTask(taskName("u", i, j)+taskName("", k, 0), 25,
					[]graph.ObjID{objs[i*n+k], objs[j*n+k]}, []graph.ObjID{objs[i*n+j]})
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, procs)
	g.Objects[in].Owner = graph.None
	assign, err := sched.OwnerComputeAssign(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	model := sched.T3D()
	bare := &sched.Schedule{G: g, P: procs, Assign: assign}
	maxPerm := slices.Max(bare.PermSize())
	distinct := false
	for capacity := maxPerm + 1; capacity <= bare.TOT(); capacity++ {
		a, err := Compile(g, assign, procs, sched.DTSMerge, model, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.ScheduleWith(sched.DTSMerge, g, assign, procs, model, capacity-maxPerm)
		if err != nil {
			t.Fatal(err)
		}
		if a.Capacity != capacity || a.Mem.Capacity != capacity {
			t.Fatalf("capacity %d: artifact planned for %d, MAP plan for %d", capacity, a.Capacity, a.Mem.Capacity)
		}
		if a.Schedule.NumSlices != want.NumSlices || !reflect.DeepEqual(a.Schedule.Order, want.Order) {
			t.Fatalf("capacity %d: Compile's schedule (%d slices) is not DTSMerge's at budget %d (%d slices)",
				capacity, a.Schedule.NumSlices, capacity-maxPerm, want.NumSlices)
		}
		whole, err := sched.ScheduleWith(sched.DTSMerge, g, assign, procs, model, capacity)
		if err != nil {
			t.Fatal(err)
		}
		distinct = distinct || whole.NumSlices != want.NumSlices
	}
	if !distinct {
		t.Fatal("no capacity merges differently from its volatile budget; the test cannot see the subtraction")
	}
}
