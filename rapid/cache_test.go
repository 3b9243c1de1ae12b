package rapid_test

import (
	"bytes"
	"testing"

	"repro/internal/chol"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/util"
	"repro/rapid"
)

// cholProgram builds the same sparse-Cholesky program deterministically on
// every call, with owners preset by the 2-D block mapping.
func cholProgram(t testing.TB, procs int) (*rapid.Program, *chol.Problem) {
	t.Helper()
	rng := util.NewRNG(7)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(12, 10, true), 40, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: procs, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return rapid.FromGraph(pr.G), pr
}

// TestCompileDeterministic is the content-addressing prerequisite: two
// independent compilations of the same input must serialize to identical
// bytes, for every heuristic and owner policy that feeds the cache.
func TestCompileDeterministic(t *testing.T) {
	for _, h := range []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge, rapid.TreeMem} {
		for _, owners := range []rapid.OwnerPolicy{rapid.OwnersPreset, rapid.OwnersCyclic, rapid.OwnersLoadBalanced} {
			opt := rapid.Options{Procs: 4, Heuristic: h, Owners: owners, Memory: 0}
			prog1, _ := cholProgram(t, 4)
			prog2, _ := cholProgram(t, 4)
			if rapid.Fingerprint(prog1, opt) != rapid.Fingerprint(prog2, opt) {
				t.Fatalf("%v/%d: fingerprints differ for identical inputs", h, owners)
			}
			p1, err := rapid.Compile(prog1, opt)
			if err != nil {
				t.Fatalf("%v/%d: %v", h, owners, err)
			}
			p2, err := rapid.Compile(prog2, opt)
			if err != nil {
				t.Fatalf("%v/%d: %v", h, owners, err)
			}
			e1, err := rapid.MarshalPlan(p1)
			if err != nil {
				t.Fatalf("%v/%d: %v", h, owners, err)
			}
			e2, err := rapid.MarshalPlan(p2)
			if err != nil {
				t.Fatalf("%v/%d: %v", h, owners, err)
			}
			if !bytes.Equal(e1, e2) {
				t.Errorf("%v/%d: identical Compile calls serialized differently", h, owners)
			}
		}
	}
}

func TestMarshalPlanRoundTrip(t *testing.T) {
	prog, _ := cholProgram(t, 3)
	p, err := rapid.Compile(prog, rapid.Options{Procs: 3, Heuristic: rapid.DTSMerge, Memory: 0})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rapid.MarshalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rapid.UnmarshalPlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := rapid.MarshalPlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("round trip is not byte-stable")
	}
	if got.Capacity != p.Capacity || got.MinMem() != p.MinMem() || got.PredictedTime() != p.PredictedTime() {
		t.Error("round trip changed plan statistics")
	}
}

// TestLenientCodecCarriesDefectivePlans: MarshalPlan and UnmarshalPlan
// refuse a plan that fails Validate in both directions, but the codec
// underneath carries it byte for byte, so the verifier corpus can persist
// such fixtures. Checksum and truncation protection still apply.
func TestLenientCodecCarriesDefectivePlans(t *testing.T) {
	prog, _ := cholProgram(t, 2)
	p, err := rapid.Compile(prog, rapid.Options{Procs: 2, Heuristic: rapid.RCP})
	if err != nil {
		t.Fatal(err)
	}
	// Reverse P0's order: Schedule.Validate fails.
	o := p.Schedule.Order[0]
	for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
		o[i], o[j] = o[j], o[i]
	}
	for _, order := range p.Schedule.Order {
		for i, tk := range order {
			p.Schedule.Pos[tk] = int32(i)
		}
	}
	if _, err := rapid.MarshalPlan(p); err == nil {
		t.Fatal("MarshalPlan accepted an invalid schedule")
	}
	enc, err := plan.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rapid.UnmarshalPlan(enc); err == nil {
		t.Fatal("UnmarshalPlan accepted an invalid schedule")
	}
	got, err := plan.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if enc2, err := plan.Encode(got); err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("defective plan did not round-trip byte for byte (err %v)", err)
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x5a
	if _, err := plan.Decode(bad); err == nil {
		t.Fatal("decode skipped the checksum")
	}
	if _, err := plan.Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("decode accepted truncation")
	}
}

// TestCachedPlanExecutesIdentically is the end-to-end acceptance check:
// executing from a cache-loaded plan (decoded from disk, fresh graph
// object) produces bitwise-identical numeric results to executing from a
// fresh Compile.
func TestCachedPlanExecutesIdentically(t *testing.T) {
	const procs = 3
	opt := rapid.Options{Procs: procs, Heuristic: rapid.MPO, Memory: 0}

	prog, pr := cholProgram(t, procs)
	fresh, err := rapid.Compile(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := rapid.Execute(prog, fresh, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	metrics := trace.NewMetrics()
	warm := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: dir, Metrics: metrics})
	prog2, _ := cholProgram(t, procs)
	if _, src, err := rapid.CompileCached(prog2, opt, warm); err != nil || src != rapid.FromCompile {
		t.Fatalf("warmup: src=%v err=%v", src, err)
	}
	// Second lookup in the same cache: memory hit.
	prog3, pr3 := cholProgram(t, procs)
	cached, src, err := rapid.CompileCached(prog3, opt, warm)
	if err != nil || src != rapid.FromMemory {
		t.Fatalf("memory lookup: src=%v err=%v", src, err)
	}
	_ = cached
	// Fresh cache over the same dir: the plan now comes from disk, with a
	// deserialized graph; execute it with prog3's kernels (IDs match).
	cold := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: dir, Metrics: metrics})
	loaded, src, err := rapid.CompileCached(prog3, opt, cold)
	if err != nil || src != rapid.FromDisk {
		t.Fatalf("disk lookup: src=%v err=%v", src, err)
	}
	gotRep, err := rapid.Execute(rapid.ProgramOf(loaded), loaded, rapid.ExecOptions{Kernel: pr3.Kernel, Init: pr3.InitObject})
	if err != nil {
		t.Fatal(err)
	}

	if len(wantRep.Objects) != len(gotRep.Objects) {
		t.Fatalf("object count %d != %d", len(wantRep.Objects), len(gotRep.Objects))
	}
	for o, want := range wantRep.Objects {
		got, ok := gotRep.Objects[o]
		if !ok {
			t.Fatalf("object %d missing from cached-plan run", o)
		}
		if len(want) != len(got) {
			t.Fatalf("object %d length %d != %d", o, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("object %d[%d]: %v != %v (cached plan diverged)", o, i, want[i], got[i])
			}
		}
	}
	// And the factor is actually right, not just consistent.
	seq, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	for o, want := range seq {
		got := gotRep.Objects[o]
		for i := range want {
			if d := want[i] - got[i]; d > 1e-8 || d < -1e-8 {
				t.Fatalf("object %d[%d]: %v vs sequential %v", o, i, got[i], want[i])
			}
		}
	}
	if metrics.Get("plancache.miss") != 1 || metrics.Get("plancache.hit.mem") != 1 || metrics.Get("plancache.hit.disk") != 1 {
		t.Errorf("counters: %v", metrics.Snapshot())
	}
}

func TestCompileCachedNilCache(t *testing.T) {
	prog, _ := cholProgram(t, 2)
	p, src, err := rapid.CompileCached(prog, rapid.Options{Procs: 2}, nil)
	if err != nil || src != rapid.FromCompile || p == nil {
		t.Fatalf("nil cache: p=%v src=%v err=%v", p, src, err)
	}
}
