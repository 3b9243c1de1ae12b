package plancache_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/factor"
	"repro/internal/plancache"
	"repro/rapid"
)

// TestCacheBudgetBoundsHeap: the memory budget bounds the heap the cache
// holds. A serve_cold-shaped stream — every request a structure never seen
// before, its problem attached to its plan as rapidd attaches it — runs
// through an 8 MiB cache; after it, the live heap has grown by at most
// the budget and a constant. A charge of a third of what a plan holds —
// its encoded size is one — lets the stream keep three times the budget.
func TestCacheBudgetBoundsHeap(t *testing.T) {
	const (
		budget = 8 << 20
		specs  = 100
		// slack is what the heap may hold beyond the budget: the
		// allocator's rounding the counts leave out, and whatever the
		// stream leaves behind outside the cache. Measured on linux/amd64,
		// with and without -race: the heap grows 0.44-0.48 MiB more than
		// the 7.21 MiB charged, 0.31-0.35 MiB under the budget.
		slack = 1 << 20
	)
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	c := plancache.New(plancache.Config{MemBudget: budget})
	before := live()
	for seed := uint64(1); seed <= specs; seed++ {
		a, err := factor.Matrix("chol", 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := factor.Build("chol", a, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		pl, src, err := rapid.CompileCached(pb.Program, rapid.Options{Procs: 4, Heuristic: rapid.MPO}, c)
		if err != nil {
			t.Fatal(err)
		}
		if src != rapid.FromCompile {
			t.Fatalf("seed %d: plan from %s; every spec of the stream must be new", seed, src)
		}
		pb.Adopt(pl)
		c.Attach(pl.Fingerprint, fmt.Sprint("chol/400/", seed), pb, pb.Bytes)
	}
	grown := live() - before
	runtime.KeepAlive(c)
	t.Logf("%d specs: %d plans held, %.2f MiB charged, live heap grew %.2f MiB (budget %d MiB)",
		specs, c.Len(), float64(c.Bytes())/(1<<20), float64(grown)/(1<<20), budget>>20)
	if c.Bytes() > budget {
		t.Errorf("%d bytes charged, over the %d budget", c.Bytes(), budget)
	}
	if grown > budget+slack {
		t.Errorf("the live heap grew %d bytes through a cache of %d; want at most %d more", grown, budget, slack)
	}
}
