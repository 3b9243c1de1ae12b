package plan_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/factor"
	"repro/internal/plan"
	"repro/rapid"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestArtifactBytesMatchesHeap: the bytes an artifact counts are the bytes
// it keeps live, within 15 %, measured as the live heap a set of freshly
// compiled artifacts adds, their tables derived and their problems
// dropped. Cholesky at the three sizes a cache sees, a DTSMerge plan under
// a 40 % budget (MAPs and slices) and an LU plan.
func TestArtifactBytesMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		kind       string
		n, block   int
		h          rapid.Heuristic
		memPercent int
		copies     int
	}{
		{"chol", 120, 8, rapid.MPO, 0, 16},
		{"chol", 400, 8, rapid.MPO, 0, 4},
		{"chol", 1496, 8, rapid.MPO, 0, 1},
		{"chol", 400, 8, rapid.DTSMerge, 40, 4},
		{"lu", 400, 16, rapid.MPO, 0, 4},
	} {
		name := fmt.Sprintf("%s n=%d %v", tc.kind, tc.n, tc.h)
		compile := func() *plan.Artifact {
			a, err := factor.Matrix(tc.kind, tc.n, 1)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := factor.Build(tc.kind, a, 4, tc.block)
			if err != nil {
				t.Fatal(err)
			}
			opt := rapid.Options{Procs: 4, Heuristic: tc.h}
			if tc.memPercent > 0 {
				if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, tc.memPercent); err != nil {
					t.Fatal(err)
				}
			}
			fp := rapid.Fingerprint(pb.Program, opt)
			pl, err := rapid.Compile(pb.Program, opt)
			if err != nil {
				t.Fatal(err)
			}
			pl.Fingerprint = fp
			pl.Tables()
			return pl
		}
		compile() // the first compile's one-time set-up is not the artifact's
		before := liveHeap()
		arts := make([]*plan.Artifact, tc.copies)
		for i := range arts {
			arts[i] = compile()
		}
		live := float64(liveHeap()) - float64(before)
		var counted int64
		for _, a := range arts {
			counted += a.Bytes()
		}
		runtime.KeepAlive(arts)
		ratio := float64(counted) / live
		t.Logf("%s: counted %.1f kB, live %.1f kB per artifact (%.3f)", name,
			float64(counted)/float64(tc.copies)/1e3, live/float64(tc.copies)/1e3, ratio)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: Bytes counts %d bytes for %.0f live; want within 15 %%", name, counted, live)
		}
	}
}
