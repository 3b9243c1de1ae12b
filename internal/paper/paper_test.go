package paper

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// These tests assert the qualitative findings of the paper's evaluation on
// the Small workloads — the properties EXPERIMENTS.md claims reproduce.

func TestTable1RatiosGrowWithProcs(t *testing.T) {
	rows := Table1(io.Discard, Small)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Fatalf("ratio not increasing: %+v", rows)
		}
	}
	if rows[0].Ratio < 1.2 || rows[len(rows)-1].Ratio < 4 {
		t.Fatalf("ratios implausibly small: %+v", rows)
	}
}

func TestTable2OverheadGrowsAsMemoryShrinks(t *testing.T) {
	rows := Table2(io.Discard, Small)
	for _, r := range rows {
		// Overall trend within a row: the tightest executable budget costs
		// at least as much as full memory (the paper itself has small
		// non-monotonic dips in the middle columns, e.g. Table 3's
		// 18.3% -> 18.1%).
		first, last := math.Inf(1), math.Inf(1)
		for _, v := range r.PTIncrease {
			if math.IsInf(v, 0) {
				continue
			}
			if math.IsInf(first, 0) {
				first = v
			}
			last = v
		}
		if !math.IsInf(first, 0) && last+1e-9 < first {
			t.Fatalf("P=%d: tightest budget cheaper than full memory: %v", r.Procs, r.PTIncrease)
		}
	}
	// The paper's "more processors make tight budgets executable" effect:
	// P=2 must have non-executable entries, P=32 must not.
	last := rows[len(rows)-1]
	for _, v := range last.PTIncrease {
		if math.IsInf(v, 0) {
			t.Fatalf("P=32 should be executable at every tested budget")
		}
	}
	first := rows[0]
	sawInf := false
	for _, v := range first.PTIncrease {
		if math.IsInf(v, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatalf("P=2 should hit a non-executable budget")
	}
}

func TestTable5MPONeedsFewerOrEqualMAPs(t *testing.T) {
	rows := Table5(io.Discard, Small)
	better := 0
	for _, r := range rows {
		for i := range r.RCP {
			if math.IsInf(r.MPO[i], 0) && !math.IsInf(r.RCP[i], 0) {
				t.Fatalf("P=%d: MPO non-executable where RCP runs", r.Procs)
			}
			if !math.IsInf(r.RCP[i], 0) && r.MPO[i] > r.RCP[i]+0.51 {
				t.Fatalf("P=%d: MPO needs clearly more MAPs (%v vs %v)", r.Procs, r.MPO[i], r.RCP[i])
			}
			if !math.IsInf(r.RCP[i], 0) && r.MPO[i] < r.RCP[i] {
				better++
			}
		}
	}
	if better == 0 {
		t.Fatalf("MPO never reduced the MAP count")
	}
}

func TestFigure7Ordering(t *testing.T) {
	a, b := Figure7(io.Discard, Small)
	check := func(series []Figure7Series, app string, rcpMuchWorse bool) {
		byLabel := map[string][]float64{}
		for _, s := range series {
			byLabel[s.Label] = s.Ratios
		}
		ideal, rcp, mpo, dts := byLabel["ideal S1/p"], byLabel["RCP"], byLabel["MPO"], byLabel["DTS"]
		for i := range ideal {
			if rcp[i] > ideal[i]+1e-9 || mpo[i] > ideal[i]+1e-9 || dts[i] > ideal[i]+1e-9 {
				t.Fatalf("%s: ratio above ideal at index %d", app, i)
			}
			if mpo[i]+1e-9 < rcp[i] && dts[i]+1e-9 < rcp[i] {
				t.Fatalf("%s: both memory heuristics worse than RCP at index %d", app, i)
			}
		}
		last := len(ideal) - 1
		if mpo[last] <= rcp[last] {
			t.Fatalf("%s: MPO not more memory-scalable than RCP at P=32 (%v vs %v)", app, mpo[last], rcp[last])
		}
		if rcpMuchWorse && rcp[last] > mpo[last]/2 {
			t.Fatalf("%s: expected RCP to be severely unscalable (%v vs %v)", app, rcp[last], mpo[last])
		}
	}
	check(a, "cholesky", false)
	check(b, "lu", true)
}

func TestTable8MFLOPSScale(t *testing.T) {
	rows := Table8(io.Discard, Small)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PT >= rows[i-1].PT {
			t.Fatalf("PT not decreasing with processors: %+v", rows)
		}
		if rows[i].MFLOPS <= rows[i-1].MFLOPS {
			t.Fatalf("MFLOPS not increasing with processors: %+v", rows)
		}
	}
}

func TestAblationMergeSweepMonotone(t *testing.T) {
	rows := AblationMergeSweep(io.Discard, Small)
	for i := 1; i < len(rows); i++ {
		if rows[i].Slices > rows[i-1].Slices {
			t.Fatalf("slice count grew with larger budget: %+v", rows)
		}
		if rows[i].PT > rows[i-1].PT*1.02 {
			t.Fatalf("parallel time degraded with larger budget: %+v", rows)
		}
	}
}

func TestFigure3Narrative(t *testing.T) {
	var sb strings.Builder
	Figure3(&sb)
	out := sb.String()
	for _, want := range []string{"MAP 1", "alloc{", "notify P", "free{", "P0", "P1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestExtensionTrisolveMemoryScales(t *testing.T) {
	rows := ExtensionTrisolve(io.Discard, Small)
	for i := 1; i < len(rows); i++ {
		if rows[i].MinMemRatio >= rows[i-1].MinMemRatio {
			t.Fatalf("per-processor memory share not shrinking: %+v", rows)
		}
	}
}

// TestPaperSmallGolden compares everything `go run ./cmd/paper -scale small`
// prints with testdata/paper_small.golden, byte for byte. The simulator is
// deterministic, so any change to a number it reports — makespans, MAP
// counts, overheads — shows here, where the other tests in this file only
// assert trends. The file was generated at the commit before the receive
// half moved into proto.Core; regenerate it (`go run ./cmd/paper -scale
// small > internal/paper/testdata/paper_small.golden`) only for a change
// that means to move these numbers.
func TestPaperSmallGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Small experiment (~4 s)")
	}
	want, err := os.ReadFile("testdata/paper_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	Report(&got, Small, "all")
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report has %d lines, golden %d", len(gl), len(wl))
}
