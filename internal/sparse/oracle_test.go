package sparse

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/util"
)

// fromCoordsSorted is FromCoords as it was before the counting sort: one
// sort of every coordinate by (column, row), then a deduplicating sweep.
// It is the oracle the counting sort must agree with.
func fromCoordsSorted(n int, coords []coord) *Matrix {
	sort.Slice(coords, func(i, j int) bool {
		if coords[i].c != coords[j].c {
			return coords[i].c < coords[j].c
		}
		return coords[i].r < coords[j].r
	})
	colPtr := make([]int32, n+1)
	rowIdx := make([]int32, 0, len(coords))
	prev := coord{-1, -1}
	for _, cc := range coords {
		if cc == prev {
			continue
		}
		prev = cc
		rowIdx = append(rowIdx, cc.r)
		colPtr[cc.c+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	return &Matrix{N: n, ColPtr: colPtr, RowIdx: rowIdx}
}

// permuteSymSorted is PermuteSym as it was before the per-column sort: every
// renamed entry sorted by (column, row) at once.
func permuteSymSorted(m *Matrix, perm []int32) *Matrix {
	n := m.N
	inv := make([]int32, n)
	for newI, oldI := range perm {
		inv[oldI] = int32(newI)
	}
	type entry struct {
		r, c int32
		v    float64
	}
	entries := make([]entry, 0, m.Nnz())
	for j := 0; j < n; j++ {
		vals := m.ColVal(j)
		for k, i := range m.Col(j) {
			var v float64
			if vals != nil {
				v = vals[k]
			}
			entries = append(entries, entry{inv[i], inv[j], v})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].c != entries[b].c {
			return entries[a].c < entries[b].c
		}
		return entries[a].r < entries[b].r
	})
	out := &Matrix{N: n, ColPtr: make([]int32, n+1), RowIdx: make([]int32, len(entries))}
	if m.Val != nil {
		out.Val = make([]float64, len(entries))
	}
	for k, e := range entries {
		out.RowIdx[k] = e.r
		out.ColPtr[e.c+1]++
		if out.Val != nil {
			out.Val[k] = e.v
		}
	}
	for j := 0; j < n; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	return out
}

func sameMatrix(a, b *Matrix) bool {
	return a.N == b.N && slices.Equal(a.ColPtr, b.ColPtr) && slices.Equal(a.RowIdx, b.RowIdx) &&
		(a.Val == nil) == (b.Val == nil) && slices.Equal(a.Val, b.Val)
}

// TestConstructorsMatchSortOracle: FromCoords and PermuteSym build the very
// arrays the sort-based versions built, on random inputs with duplicate
// coordinates, empty columns, n = 1 and no coordinates at all.
func TestConstructorsMatchSortOracle(t *testing.T) {
	rng := util.NewRNG(27)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		if trial%50 == 0 {
			n = 1
		}
		var coords []coord
		for k := rng.Intn(4 * n); k > 0; k-- {
			// Few columns get entries; repeats are likely.
			cc := coord{int32(rng.Intn(n)), int32(rng.Intn(1 + n/3))}
			coords = append(coords, cc)
			if rng.Intn(4) == 0 {
				coords = append(coords, cc)
			}
		}
		got := FromCoords(n, slices.Clone(coords))
		want := fromCoordsSorted(n, slices.Clone(coords))
		if !sameMatrix(got, want) {
			t.Fatalf("trial %d: FromCoords(%d, %v) = %+v, sort oracle %+v", trial, n, coords, got, want)
		}

		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		if !sameMatrix(got.PermuteSym(perm), permuteSymSorted(got, perm)) {
			t.Fatalf("trial %d: pattern PermuteSym disagrees with the sort oracle", trial)
		}
		valued := got.Clone()
		valued.Val = make([]float64, valued.Nnz())
		for k := range valued.Val {
			valued.Val[k] = rng.NormFloat64()
		}
		if !sameMatrix(valued.PermuteSym(perm), permuteSymSorted(valued, perm)) {
			t.Fatalf("trial %d: valued PermuteSym disagrees with the sort oracle", trial)
		}
	}
}
