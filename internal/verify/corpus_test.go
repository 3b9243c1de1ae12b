package verify

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "regenerate the badplans corpus")

// corpusDir holds one golden fixture per verifier finding class. Each file
// is the checksummed encoding of a deliberately defective plan; the
// expected finding class is the filename stem.
const corpusDir = "testdata/badplans"

// badPlans enumerates the corpus: fixture name -> constructor. The name must
// start with the expected finding class (it may carry a -variant suffix).
func badPlans(t *testing.T) map[string]func(t *testing.T) *plan.Artifact {
	t.Helper()
	wrap := func(s *sched.Schedule, pl *mem.Plan) *plan.Artifact {
		return &plan.Artifact{
			Fingerprint: plan.Fingerprint(s.G, []byte("badplan")),
			Model:       sched.Unit(),
			Capacity:    pl.Capacity,
			Schedule:    s,
			Mem:         pl,
		}
	}
	return map[string]func(t *testing.T) *plan.Artifact{
		"use-before-map": func(t *testing.T) *plan.Artifact {
			s, pl := figure2Plan(t, sched.RCP, 1<<30)
			p, mi, ai := firstVolatileAlloc(t, pl)
			mapp := &pl.Procs[p].MAPs[mi]
			o := mapp.Allocs[ai]
			mapp.Allocs = append(mapp.Allocs[:ai], mapp.Allocs[ai+1:]...)
			keep := mem.Notify{Off: []int32{0}}
			for i, q := range mapp.Notify.Dst {
				n := len(keep.Objs)
				for _, oo := range mapp.Notify.Objects(i) {
					if oo != o {
						keep.Objs = append(keep.Objs, oo)
					}
				}
				if len(keep.Objs) > n {
					keep.Dst = append(keep.Dst, q)
					keep.Off = append(keep.Off, int32(len(keep.Objs)))
				}
			}
			mapp.Notify = keep
			return wrap(s, pl)
		},
		"use-after-free": func(t *testing.T) *plan.Artifact {
			// Free before last use.
			s, pl := figure2Plan(t, sched.RCP, 1<<30)
			p, mi, ai := firstVolatileAlloc(t, pl)
			mapp := &pl.Procs[p].MAPs[mi]
			o := mapp.Allocs[ai]
			last := int32(len(s.Order[p]))
			pl.Procs[p].MAPs[mi].CoverEnd = mapp.Pos + 1
			pl.Procs[p].MAPs = append(pl.Procs[p].MAPs, mem.MAP{
				Pos: mapp.Pos + 1, CoverEnd: last, Frees: []graph.ObjID{o},
			})
			return wrap(s, pl)
		},
		"double-free": func(t *testing.T) *plan.Artifact {
			s, pl := figure2Plan(t, sched.RCP, 1<<30)
			p, mi, ai := firstVolatileAlloc(t, pl)
			mapp := &pl.Procs[p].MAPs[mi]
			o := mapp.Allocs[ai]
			last := int32(len(s.Order[p]))
			pl.Procs[p].MAPs[mi].CoverEnd = last - 1
			pl.Procs[p].MAPs = append(pl.Procs[p].MAPs, mem.MAP{
				Pos: last - 1, CoverEnd: last, Frees: []graph.ObjID{o, o},
			})
			return wrap(s, pl)
		},
		"wait-cycle": func(t *testing.T) *plan.Artifact {
			s, pl := crossSchedule(t)
			return wrap(s, pl)
		},
		"budget-overflow": func(t *testing.T) *plan.Artifact {
			s, pl := figure2Plan(t, sched.RCP, 1<<30)
			pl.Capacity = 1 // far below the replayed peak; still claims executable
			return wrap(s, pl)
		},
		"threshold-mismatch": func(t *testing.T) *plan.Artifact {
			s, pl, tamper, _, _ := thresholdFixture(t)
			tamper()
			return wrap(s, pl)
		},
	}
}

func TestGenerateCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, build := range badPlans(t) {
		enc, err := plan.Encode(build(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, name+".rplan"), enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusDetection loads every committed fixture through the plan
// codec and asserts the verifier reports the class the filename names, with
// object-precise diagnostics for the liveness classes.
func TestCorpusDetection(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.rplan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d fixtures, want >= 6 (regenerate with -update)", len(files))
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".rplan")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			a, err := plan.Decode(data)
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			res := CheckArtifact(a)
			if res.OK() {
				t.Fatal("defective fixture verified clean")
			}
			f, ok := find(res, Class(name))
			if !ok {
				t.Fatalf("expected class %q, got %v", name, res.Findings)
			}
			switch Class(name) {
			case ClassUseBeforeMAP, ClassUseAfterFree, ClassDoubleFree:
				if f.Proc == graph.None || f.Obj == graph.None {
					t.Fatalf("liveness finding not object-precise: %+v", f)
				}
			case ClassThresholdMismatch:
				if f.Task == graph.None || f.Obj == graph.None {
					t.Fatalf("threshold finding not task-precise: %+v", f)
				}
			case ClassWaitCycle:
				if !strings.Contains(f.Detail, "blocking chain") {
					t.Fatalf("cycle finding missing chain: %+v", f)
				}
			}
		})
	}
}

// TestCorpusInSync rebuilds each fixture and checks the committed bytes
// match, so corpus drift is caught instead of silently testing stale plans.
func TestCorpusInSync(t *testing.T) {
	for name, build := range badPlans(t) {
		data, err := os.ReadFile(filepath.Join(corpusDir, name+".rplan"))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", name, err)
		}
		enc, err := plan.Encode(build(t))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(enc) {
			t.Errorf("%s: committed fixture out of sync with its constructor (regenerate with -update)", name)
		}
	}
}
