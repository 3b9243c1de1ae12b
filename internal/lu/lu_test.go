package lu

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/util"
)

func testMatrix(t *testing.T, nx, ny, links int, seed uint64) *sparse.Matrix {
	t.Helper()
	rng := util.NewRNG(seed)
	m := sparse.AddRandomUnsymLinks(sparse.Grid2D(nx, ny, false), links, rng)
	return sparse.UnsymValues(m, rng)
}

func TestBuildStructure(t *testing.T) {
	a := testMatrix(t, 6, 5, 8, 1)
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
	if pr.G.NumObjects() != pr.NB {
		t.Fatalf("objects %d != panels %d", pr.G.NumObjects(), pr.NB)
	}
	// 1-D cyclic owners.
	for k := 0; k < pr.NB; k++ {
		if pr.G.Objects[pr.PanelObj(k)].Owner != int32(k%4) {
			t.Fatalf("panel %d owner wrong", k)
		}
	}
}

func TestSolveResidual(t *testing.T) {
	for _, bs := range []int{3, 5, 7} {
		a := testMatrix(t, 6, 6, 10, uint64(bs))
		pr, err := Build(a, Options{Procs: 3, BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		bufs, err := pr.SequentialFactor()
		if err != nil {
			t.Fatal(err)
		}
		n := a.N
		rng := util.NewRNG(99)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		// b = A·xTrue.
		b := make([]float64, n)
		for j := 0; j < n; j++ {
			vals := a.ColVal(j)
			for k, i := range a.Col(j) {
				b[i] += vals[k] * xTrue[j]
			}
		}
		x := pr.Solve(bufs, b)
		maxErr, maxX := 0.0, 0.0
		for i := range x {
			if d := math.Abs(x[i] - xTrue[i]); d > maxErr {
				maxErr = d
			}
			if v := math.Abs(xTrue[i]); v > maxX {
				maxX = v
			}
		}
		if maxErr/maxX > 1e-8 {
			t.Fatalf("bs=%d: relative solve error %v", bs, maxErr/maxX)
		}
	}
}

func TestUpdatesAreOrderedChains(t *testing.T) {
	a := testMatrix(t, 5, 5, 6, 2)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Updates into a panel must form a chain: every update task except the
	// panel's first has an incoming true edge from another task writing the
	// same panel.
	writers := make(map[int32][]int32) // panel -> task IDs in program order
	for ti := range pr.G.Tasks {
		inf := pr.info[ti]
		writers[inf.j] = append(writers[inf.j], int32(ti))
	}
	for panel, ws := range writers {
		for i := 1; i < len(ws); i++ {
			found := false
			for _, e := range pr.G.In(ws[i]) {
				if e.From == ws[i-1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("panel %d: writer %d not chained to %d", panel, ws[i], ws[i-1])
			}
		}
	}
}

func TestPanelSizesAndHeights(t *testing.T) {
	a := testMatrix(t, 6, 4, 5, 3)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pr.NB; k++ {
		if pr.G.Objects[pr.PanelObj(k)].Size <= 0 {
			t.Fatalf("panel %d size non-positive", k)
		}
		// n×w matrix, w pivots, one bit per row below the diagonal block.
		w := pr.BP.BlockDim(k)
		if want := int64(pr.N*w + w + (pr.N-k*pr.W-w+31)/32); pr.BufLen(pr.PanelObj(k)) != want {
			t.Fatalf("panel %d buffer length %d, want %d", k, pr.BufLen(pr.PanelObj(k)), want)
		}
	}
	h := pr.Heights()
	for k := range h {
		if h[k] < int64(pr.BP.BlockDim(k)) {
			t.Fatalf("height of panel %d below its own width", k)
		}
	}
}

func TestPivotingActuallyHappens(t *testing.T) {
	a := testMatrix(t, 6, 6, 12, 4)
	pr, err := Build(a, Options{Procs: 2, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for k := 0; k < pr.NB; k++ {
		_, pivF, _, w := pr.panelParts(k, bufs[pr.PanelObj(k)])
		for q := 0; q < w; q++ {
			if int(pivF[q]) != q {
				swaps++
			}
		}
	}
	if swaps == 0 {
		t.Fatalf("no row interchanges occurred; pivoting untested")
	}
}

// TestSymbolicRunsOnce pins what Build takes from the one AᵀA symbolic
// factorization against an independent run of it.
func TestSymbolicRunsOnce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := testMatrix(t, 9, 7, 14, seed)
		w := 5
		pr, err := Build(a, Options{Procs: 3, BlockSize: w})
		if err != nil {
			t.Fatal(err)
		}
		bp2 := sparse.NewBlockPattern2D(a.AtAPattern(), w)
		for k := 0; k < pr.NB; k++ {
			var h, nnz int64
			for _, r := range bp2.Rows[k] {
				h += int64(bp2.BlockDim(int(r)))
			}
			for j := k * w; j < k*w+bp2.BlockDim(k); j++ {
				nnz += 2*bp2.ColNnz[j] - 1
			}
			if pr.Heights()[k] != h || pr.BP.PanelNnz[k] != nnz {
				t.Fatalf("seed %d panel %d: height %d nnz %d, want %d %d",
					seed, k, pr.Heights()[k], pr.BP.PanelNnz[k], h, nnz)
			}
		}
	}
}

// listedRows decodes a panel's row index into one flag per row below the
// diagonal block.
func listedRows(rows []float64, below int) []bool {
	listed := make([]bool, below)
	for i := range listed {
		listed[i] = uint64(rows[i/rowsPerWord])>>(i%rowsPerWord)&1 == 1
	}
	return listed
}

// checkRowIndex fails unless, in every factored panel, each listed row holds
// a nonzero and each unlisted row below the diagonal block is all zero. It
// returns how many rows are listed and how many are not.
func checkRowIndex(t *testing.T, pr *Problem, bufs map[graph.ObjID][]float64) (listed, unlisted int) {
	t.Helper()
	for k := 0; k < pr.NB; k++ {
		mat, _, rows, w := pr.panelParts(k, bufs[pr.PanelObj(k)])
		below := mat[(pr.colStart(k)+w)*w:]
		for i, in := range listedRows(rows, len(below)/w) {
			nonzero := false
			for _, v := range below[i*w : (i+1)*w] {
				nonzero = nonzero || v != 0
			}
			switch {
			case in && !nonzero:
				t.Fatalf("panel %d: listed row %d is all zero", k, i)
			case !in && nonzero:
				t.Fatalf("panel %d: row %d holds a nonzero and is not listed", k, i)
			case in:
				listed++
			default:
				unlisted++
			}
		}
	}
	return listed, unlisted
}

// denseFactor is SequentialFactor with the row index defeated: after each
// factor task the panel's index is overwritten to mark every row, so every
// update multiplies the zero rows too.
func denseFactor(t *testing.T, pr *Problem) map[graph.ObjID][]float64 {
	t.Helper()
	bufs := make(map[graph.ObjID][]float64)
	for k := 0; k < pr.NB; k++ {
		b := make([]float64, pr.BufLen(pr.PanelObj(k)))
		pr.InitObject(pr.PanelObj(k), b)
		bufs[pr.PanelObj(k)] = b
	}
	order, err := pr.G.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range order {
		if err := pr.Kernel(task, func(o graph.ObjID) []float64 { return bufs[o] }); err != nil {
			t.Fatal(err)
		}
		if ti := pr.info[task]; ti.kind == opFactor {
			_, _, rows, w := pr.panelParts(int(ti.k), bufs[pr.PanelObj(int(ti.k))])
			clear(rows)
			for i := 0; i < pr.N-pr.colStart(int(ti.k))-w; i++ {
				rows[i/rowsPerWord] += float64(uint64(1) << (i % rowsPerWord))
			}
		}
	}
	return bufs
}

// TestRowIndexIsExact is the test that fails if an update ever skips a row
// it should not: the row index lists exactly the nonzero rows, and the
// factor it yields is bit-equal to the dense update's.
func TestRowIndexIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := testMatrix(t, 12, 10, 30, seed)
		pr, err := Build(a, Options{Procs: 4, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		bufs, err := pr.SequentialFactor()
		if err != nil {
			t.Fatal(err)
		}
		listed, unlisted := checkRowIndex(t, pr, bufs)
		if listed == 0 || unlisted == 0 {
			t.Fatalf("seed %d: %d rows listed, %d not: the index is not exercised", seed, listed, unlisted)
		}
		dense := denseFactor(t, pr)
		for k := 0; k < pr.NB; k++ {
			got, gotPiv, _, _ := pr.panelParts(k, bufs[pr.PanelObj(k)])
			want, wantPiv, _, _ := pr.panelParts(k, dense[pr.PanelObj(k)])
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d panel %d entry %d: %v with the row index, %v with the dense update",
						seed, k, i, got[i], want[i])
				}
			}
			for i := range wantPiv {
				if gotPiv[i] != wantPiv[i] {
					t.Fatalf("seed %d panel %d: pivot %d differs", seed, k, i)
				}
			}
		}
	}
}

// TestSetMatrixRebuildsRowIndex follows the Newton example: the second
// factorization, on new values over the same pattern, must list its own
// nonzero rows, not the first one's.
func TestSetMatrixRebuildsRowIndex(t *testing.T) {
	a := testMatrix(t, 12, 10, 30, 7)
	pr, err := Build(a, Options{Procs: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	firstListed, _ := checkRowIndex(t, pr, first)

	// Same pattern, but every off-diagonal value is an explicit zero: no
	// panel has a nonzero below its diagonal block any more.
	diag := *a
	diag.Val = make([]float64, len(a.Val))
	for j := 0; j < a.N; j++ {
		vals := diag.ColVal(j)
		for idx, i := range a.Col(j) {
			if int(i) == j {
				vals[idx] = 1 + float64(j)
			}
		}
	}
	if err := pr.SetMatrix(&diag); err != nil {
		t.Fatal(err)
	}
	second, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	secondListed, _ := checkRowIndex(t, pr, second)
	if firstListed == 0 || secondListed != 0 {
		t.Fatalf("rows listed: %d then %d, want some then none", firstListed, secondListed)
	}
}

// TestKernelDoesNotAllocate: pivots and the row index are read from the
// panel buffers as stored, so a task allocates nothing.
func TestKernelDoesNotAllocate(t *testing.T) {
	a := testMatrix(t, 12, 10, 30, 1)
	pr, err := Build(a, Options{Procs: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	flat := make([][]float64, pr.NB)
	for k := range flat {
		flat[k] = bufs[pr.PanelObj(k)]
	}
	get := func(o graph.ObjID) []float64 { return flat[o] }
	update := graph.TaskID(-1)
	for ti, inf := range pr.info {
		if inf.kind == opUpdate {
			update = graph.TaskID(ti)
			break
		}
	}
	if update < 0 {
		t.Fatal("no update task")
	}
	// Re-running an update on factored panels computes garbage, which is
	// fine: the task's control flow is the same.
	if n := testing.AllocsPerRun(20, func() {
		if err := pr.Kernel(update, get); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("update task allocates %v objects per call", n)
	}
}
