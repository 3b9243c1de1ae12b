package verify_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/factor"
	"repro/internal/plan"
	"repro/internal/verify"
	"repro/rapid"
)

// goldenFile pins the verifier's whole output — every finding's text and
// location, Checks, Peaks and Truncated — on the badplans corpus, on every
// plan verify_test.go checks, and on clean compiled plans. Regenerate with
// -update only for a change that means to move what the verifier reports.
const goldenFile = "testdata/verify.golden"

// compiled is factor's (kind, n, seed 1) problem on 4 processors, block 8,
// compiled with h at pct % of TOT.
func compiled(t *testing.T, kind string, n int, h rapid.Heuristic, pct int) *rapid.Plan {
	t.Helper()
	a, err := factor.Matrix(kind, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := factor.Build(kind, a, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt := rapid.Options{Procs: 4, Heuristic: h}
	if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, pct); err != nil {
		t.Fatal(err)
	}
	pl, err := rapid.Compile(pb.Program, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// droppedFrees is the n=400 Cholesky plan under DTS+merge at 40 % of TOT
// with the first MAP that frees anything freeing nothing: a plan with many
// defects of one class at one MAP.
func droppedFrees(t *testing.T) *rapid.Plan {
	t.Helper()
	pl := compiled(t, "chol", 400, rapid.DTSMerge, 40)
	for p := range pl.Mem.Procs {
		for mi := range pl.Mem.Procs[p].MAPs {
			if m := &pl.Mem.Procs[p].MAPs[mi]; len(m.Frees) > 0 {
				m.Frees = nil
				return pl
			}
		}
	}
	t.Fatal("plan frees nothing")
	return nil
}

// render writes one input's Result as the golden records it.
func render(b *strings.Builder, name string, res *verify.Result) {
	fmt.Fprintf(b, "== %s\nchecks %d, peaks %v, executable %v, truncated %v, %d findings\n",
		name, res.Checks, res.Peaks, res.Executable, res.Truncated, len(res.Findings))
	for _, f := range res.Findings {
		fmt.Fprintf(b, "%s {task %d, object %d}\n", f, f.Task, f.Obj)
	}
}

func TestVerifyGolden(t *testing.T) {
	var b strings.Builder
	files, err := filepath.Glob("testdata/badplans/*.rplan")
	if err != nil || len(files) == 0 {
		t.Fatalf("no badplans fixtures (%v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		a, err := plan.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		render(&b, "badplans/"+filepath.Base(file), verify.CheckArtifact(a))
	}
	names, plans := verify.Mutations()
	for i, name := range names {
		render(&b, "mutation: "+name, verify.Check(plans[i](t)))
	}
	for _, kind := range factor.Kinds {
		for _, n := range []int{120, 400} {
			for _, h := range []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge, rapid.TreeMem} {
				for _, pct := range []int{100, 40} {
					pl := compiled(t, kind, n, h, pct)
					render(&b, fmt.Sprintf("compiled: %s n=%d %v %d%% of TOT", kind, n, h, pct), verify.Check(pl.Schedule, pl.Mem))
				}
			}
		}
	}
	pl := droppedFrees(t)
	render(&b, "compiled: chol n=400 DTS+merge 40% of TOT, one MAP's frees dropped", verify.Check(pl.Schedule, pl.Mem))

	got := b.String()
	if *verify.Update {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verifier output moved at line %d of %s:\n got: %s\nwant: %s", i+1, goldenFile, gl[i], wl[i])
		}
	}
	t.Fatalf("verifier output moved: %d lines, %s has %d", len(gl), goldenFile, len(wl))
}

// TestFindingsDeterministic: a plan with many defects of one class must
// report them in one order every time — Findings is capped, so an order
// that varied would also vary which defects are reported.
func TestFindingsDeterministic(t *testing.T) {
	pl := droppedFrees(t)
	var first string
	for run := 0; run < 50; run++ {
		var b strings.Builder
		res := verify.Check(pl.Schedule, pl.Mem)
		if res.OK() {
			t.Fatal("a plan that frees nothing at one MAP verified clean")
		}
		render(&b, "run", res)
		if run == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("run %d reported differently from run 0:\n%s\nvs\n%s", run, b.String(), first)
		}
	}
}
