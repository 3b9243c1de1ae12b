package chol

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/util"
)

func testMatrix(t *testing.T, nx, ny, links int, seed uint64) *sparse.Matrix {
	t.Helper()
	rng := util.NewRNG(seed)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(nx, ny, true), links, rng)
	perm := sparse.RCM(m)
	m = m.PermuteSym(perm)
	return sparse.SPDValues(m, rng)
}

func TestBuildStructure(t *testing.T) {
	a := testMatrix(t, 6, 5, 4, 1)
	pr, err := Build(a, Options{Procs: 4, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pr.G.CheckDependenceComplete(); err != nil {
		t.Fatal(err)
	}
	// Every object must have an owner in range.
	for i := range pr.G.Objects {
		own := pr.G.Objects[i].Owner
		if own < 0 || int(own) >= 4 {
			t.Fatalf("object %d owner %d", i, own)
		}
	}
	// Diagonal blocks must exist for every block column.
	for k := 0; k < pr.NB; k++ {
		if _, ok := pr.BlockObj(k, k); !ok {
			t.Fatalf("missing diagonal block %d", k)
		}
	}
}

func TestSequentialFactorMatchesDense(t *testing.T) {
	a := testMatrix(t, 5, 4, 3, 2)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	l := assembleL(pr, bufs)
	// Dense reference.
	ref := a.ToDense()
	if err := blas.Potrf(a.N, ref, a.N); err != nil {
		t.Fatal(err)
	}
	n := a.N
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(l[i*n+j]-ref[i*n+j]) > 1e-8 {
				t.Fatalf("L mismatch at (%d,%d): %v vs %v", i, j, l[i*n+j], ref[i*n+j])
			}
		}
	}
}

func TestFactorResidual(t *testing.T) {
	a := testMatrix(t, 7, 6, 6, 3)
	pr, err := Build(a, Options{Procs: 4, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	l := assembleL(pr, bufs)
	n := a.N
	// ‖A - L·Lᵀ‖_F / ‖A‖_F
	rec := make([]float64, n*n)
	blas.Gemm(true, n, n, n, 1, l, n, l, n, rec, n)
	ad := a.ToDense()
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := ad[i*n+j] - rec[i*n+j]
			num += d * d
			den += ad[i*n+j] * ad[i*n+j]
		}
	}
	if r := math.Sqrt(num / den); r > 1e-12 {
		t.Fatalf("relative residual %v too large", r)
	}
}

func TestTaskCountsScaleWithFill(t *testing.T) {
	a := testMatrix(t, 8, 8, 0, 4)
	pr1, err := Build(a, Options{Procs: 2, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := Build(a, Options{Procs: 2, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pr1.G.NumTasks() <= pr2.G.NumTasks() {
		t.Fatalf("smaller blocks should give more tasks: %d vs %d", pr1.G.NumTasks(), pr2.G.NumTasks())
	}
	if pr1.G.NumTasks() < pr1.NB {
		t.Fatalf("fewer tasks than block columns")
	}
}

func TestOwnerComputeHolds(t *testing.T) {
	a := testMatrix(t, 6, 6, 5, 5)
	pr, err := Build(a, Options{Procs: 6, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every task's written object is owned by a single processor, so the
	// owner-compute rule can assign it.
	for ti := range pr.G.Tasks {
		if ws := pr.G.Writes(graph.TaskID(ti)); len(ws) != 1 {
			t.Fatalf("task %q writes %d objects", pr.G.TaskName(graph.TaskID(ti)), len(ws))
		}
	}
}

func TestInitObjectLowerTriangle(t *testing.T) {
	a := testMatrix(t, 4, 4, 2, 6)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := pr.BlockObj(0, 0)
	buf := make([]float64, pr.G.Objects[o].Size)
	pr.InitObject(o, buf)
	w := pr.dims[0]
	for i := 0; i < w; i++ {
		for j := i + 1; j < w; j++ {
			if buf[i*w+j] != 0 {
				t.Fatalf("diagonal block has upper-triangle value at (%d,%d)", i, j)
			}
		}
	}
	if buf[0] == 0 {
		t.Fatalf("diagonal entry missing")
	}
}

func TestCostsArePositive(t *testing.T) {
	a := testMatrix(t, 5, 5, 2, 7)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range pr.G.Tasks {
		if pr.G.Tasks[ti].Cost <= 0 {
			t.Fatalf("task %q has non-positive cost", pr.G.TaskName(graph.TaskID(ti)))
		}
	}
	if pr.G.SeqSpace() <= 0 {
		t.Fatalf("sequential space must be positive")
	}
	_ = graph.None
}

// TestBuildMatchesPairwiseClosure: Build closes the block pattern by merging
// each column into its first off-diagonal block's column only; the rule it
// implements is pairwise — blocks (I,k) and (J,k), I >= J > k, make block
// (I,J) present. The reference applies that rule pair by pair, over sets, and
// must arrive at the same rows. The numbering and the names follow from the
// rows: blocks are objects in column-then-row order, called A[I,J], and the
// tasks are called after their kernel and block coordinates.
func TestBuildMatchesPairwiseClosure(t *testing.T) {
	grew := false
	for seed := uint64(1); seed <= 6; seed++ {
		for _, w := range []int{2, 3, 5} {
			a := testMatrix(t, 9, 8, 30, seed)
			pr, err := Build(a, Options{Procs: 4, BlockSize: w})
			if err != nil {
				t.Fatal(err)
			}
			bp := sparse.NewBlockPattern2D(a, w)
			sets := make([]map[int32]bool, bp.NB)
			for j, rows := range bp.Rows {
				sets[j] = map[int32]bool{}
				for _, r := range rows {
					sets[j][r] = true
				}
			}
			next := graph.ObjID(0)
			for k := 0; k < bp.NB; k++ {
				var col []int32
				for r := range sets[k] {
					col = append(col, r)
				}
				slices.Sort(col)
				if !slices.Equal(col, pr.Rows[k]) {
					t.Fatalf("seed %d w %d: column %d has rows %v, pairwise closure %v", seed, w, k, pr.Rows[k], col)
				}
				grew = grew || len(col) > len(bp.Rows[k])
				for _, i := range col {
					o, ok := pr.BlockObj(int(i), k)
					if !ok || o != next || pr.G.Objects[o].Name != fmt.Sprintf("A[%d,%d]", i, k) {
						t.Fatalf("seed %d w %d: block (%d,%d) is object %d %q (present %v), want %d", seed, w, i, k, o, pr.G.Objects[o].Name, ok, next)
					}
					next++
				}
				for x, i := range col[1:] {
					for _, j := range col[1 : x+2] {
						sets[j][i] = true
					}
				}
			}
			if _, ok := pr.BlockObj(0, bp.NB-1); ok && bp.NB > 1 {
				t.Fatalf("seed %d w %d: block (0,%d) lies above the diagonal and is reported present", seed, w, bp.NB-1)
			}
			for ti, in := range pr.info {
				want := map[opKind]string{
					opPotrf:  fmt.Sprintf("potrf(%d)", in.k),
					opScale:  fmt.Sprintf("scale(%d,%d)", in.i, in.k),
					opSyrk:   fmt.Sprintf("syrk(%d,%d)", in.i, in.k),
					opUpdate: fmt.Sprintf("update(%d,%d,%d)", in.i, in.j, in.k),
				}[in.kind]
				if got := pr.G.TaskName(graph.TaskID(ti)); got != want {
					t.Fatalf("seed %d w %d: task %d is named %q, want %q", seed, w, ti, got, want)
				}
			}
		}
	}
	if !grew {
		t.Fatal("no column grew under closure; the matrices no longer exercise it")
	}
}

// assembleL expands block buffers into a dense lower-triangular factor.
func assembleL(pr *Problem, bufs map[graph.ObjID][]float64) []float64 {
	n := pr.N
	l := make([]float64, n*n)
	for o, c := range pr.coord {
		bi, bj := c[0], c[1]
		rows, cols := pr.dims[bi], pr.dims[bj]
		buf := bufs[graph.ObjID(o)]
		for r := 0; r < rows; r++ {
			for q := 0; q < cols; q++ {
				gi, gj := int(bi)*pr.W+r, int(bj)*pr.W+q
				if gj > gi {
					continue
				}
				l[gi*n+gj] = buf[r*cols+q]
			}
		}
	}
	return l
}

// denseResidual is Residual the dense way, as it was computed before it
// went block by block: the assembled L, its blas.Syrk, and A densified.
func denseResidual(pr *Problem, bufs map[graph.ObjID][]float64) float64 {
	n := pr.N
	l := assembleL(pr, bufs)
	rec := make([]float64, n*n)
	blas.Syrk(n, n, 1, l, n, rec, n)
	ad := pr.A.ToDense()
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := ad[i*n+j] - rec[i*n+j]
			num += d * d
			den += ad[i*n+j] * ad[i*n+j]
		}
	}
	return math.Sqrt(num / den)
}

// TestResidualMatchesDense: the block residual returns the very bits of the
// dense one, on random shapes and block sizes (ragged last blocks and
// block size 1 included), for the computed factor and for arbitrary block
// contents, whose sums cancel and change sign.
func TestResidualMatchesDense(t *testing.T) {
	rng := util.NewRNG(7)
	for trial := 0; trial < 24; trial++ {
		nx, ny := 2+int(rng.Uint64()%9), 2+int(rng.Uint64()%9)
		w := 1 + int(rng.Uint64()%9)
		a := testMatrix(t, nx, ny, int(rng.Uint64()%12), uint64(trial+1))
		pr, err := Build(a, Options{Procs: 4, BlockSize: w})
		if err != nil {
			t.Fatal(err)
		}
		bufs, err := pr.SequentialFactor()
		if err != nil {
			t.Fatal(err)
		}
		random := make(map[graph.ObjID][]float64, len(bufs))
		for o, b := range bufs {
			r := make([]float64, len(b))
			for i := range r {
				r[i] = float64(int64(rng.Uint64()%2001)-1000) / 37
			}
			random[o] = r
		}
		for name, b := range map[string]map[graph.ObjID][]float64{"factor": bufs, "random": random} {
			got, want := pr.Residual(b), denseResidual(pr, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d w=%d %s: residual %v (%#x), dense %v (%#x)", a.N, w, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
