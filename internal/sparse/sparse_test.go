package sparse

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/util"
)

func TestGrid2DPattern(t *testing.T) {
	m := Grid2D(3, 3, false)
	if m.N != 9 {
		t.Fatalf("N = %d", m.N)
	}
	if !m.IsSymmetricPattern() {
		t.Fatalf("not symmetric")
	}
	// Interior node 4 has 5 entries (self + 4 neighbours).
	if len(m.Col(4)) != 5 {
		t.Fatalf("center column has %d entries, want 5", len(m.Col(4)))
	}
	if !m.HasEntry(4, 4) || !m.HasEntry(3, 4) || m.HasEntry(0, 4) {
		t.Fatalf("entries wrong")
	}
}

func TestGrid2DNineP(t *testing.T) {
	m := Grid2D(3, 3, true)
	if len(m.Col(4)) != 9 {
		t.Fatalf("center column has %d entries, want 9", len(m.Col(4)))
	}
	if !m.IsSymmetricPattern() {
		t.Fatalf("not symmetric")
	}
}

func TestGrid3D(t *testing.T) {
	m := Grid3D(3, 3, 3)
	if m.N != 27 {
		t.Fatalf("N = %d", m.N)
	}
	if len(m.Col(13)) != 7 { // interior node
		t.Fatalf("interior column has %d entries, want 7", len(m.Col(13)))
	}
	if !m.IsSymmetricPattern() {
		t.Fatalf("not symmetric")
	}
}

func TestSymmetrizeAndLinks(t *testing.T) {
	rng := util.NewRNG(1)
	m := Grid2D(5, 5, false)
	u := AddRandomUnsymLinks(m, 20, rng)
	s := u.SymmetrizePattern()
	if !s.IsSymmetricPattern() {
		t.Fatalf("symmetrize failed")
	}
	if s.Nnz() < u.Nnz() {
		t.Fatalf("symmetrize lost entries")
	}
	m2 := AddRandomSymLinks(m, 20, rng)
	if !m2.IsSymmetricPattern() {
		t.Fatalf("AddRandomSymLinks broke symmetry")
	}
}

func TestTruncate(t *testing.T) {
	m := Grid2D(4, 4, false)
	tr := m.Truncate(7)
	if tr.N != 7 {
		t.Fatalf("N = %d", tr.N)
	}
	for j := 0; j < 7; j++ {
		for _, i := range tr.Col(j) {
			if int(i) >= 7 {
				t.Fatalf("row out of range")
			}
			if !m.HasEntry(int(i), j) {
				t.Fatalf("spurious entry")
			}
		}
	}
}

func TestPermuteSymRoundTrip(t *testing.T) {
	rng := util.NewRNG(2)
	m := SPDValues(AddRandomSymLinks(Grid2D(4, 4, false), 6, rng), rng)
	perm := make([]int32, m.N)
	for i, v := range rng.Perm(m.N) {
		perm[i] = int32(v)
	}
	p := m.PermuteSym(perm)
	if p.Nnz() != m.Nnz() {
		t.Fatalf("nnz changed: %d vs %d", p.Nnz(), m.Nnz())
	}
	// Check value correspondence via dense expansion.
	dm, dp := m.ToDense(), p.ToDense()
	n := m.N
	for newI := 0; newI < n; newI++ {
		for newJ := 0; newJ < n; newJ++ {
			if dp[newI*n+newJ] != dm[int(perm[newI])*n+int(perm[newJ])] {
				t.Fatalf("permutation wrong at (%d,%d)", newI, newJ)
			}
		}
	}
}

func TestRCMIsPermutationAndReducesBandwidth(t *testing.T) {
	rng := util.NewRNG(3)
	m := AddRandomSymLinks(Grid2D(12, 12, false), 10, rng)
	// Scramble first so RCM has something to do.
	scram := make([]int32, m.N)
	for i, v := range rng.Perm(m.N) {
		scram[i] = int32(v)
	}
	ms := m.PermuteSym(scram)
	perm := RCM(ms)
	seen := make([]bool, ms.N)
	for _, v := range perm {
		if v < 0 || int(v) >= ms.N || seen[v] {
			t.Fatalf("RCM not a permutation")
		}
		seen[v] = true
	}
	bw := func(a *Matrix) int {
		b := 0
		for j := 0; j < a.N; j++ {
			for _, i := range a.Col(j) {
				d := int(i) - j
				if d < 0 {
					d = -d
				}
				if d > b {
					b = d
				}
			}
		}
		return b
	}
	after := ms.PermuteSym(perm)
	if bw(after) >= bw(ms) {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", bw(ms), bw(after))
	}
}

// denseSymbolicFill computes the fill pattern of the Cholesky factor by a
// dense reference elimination on the pattern.
func denseSymbolicFill(m *Matrix) [][]bool {
	n := m.N
	f := make([][]bool, n)
	for i := range f {
		f[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			f[int(i)][j] = true
			f[j][int(i)] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !f[i][k] {
				continue
			}
			for j := k + 1; j <= i; j++ {
				if f[j][k] {
					f[i][j] = true
					f[j][i] = true
				}
			}
		}
	}
	return f
}

func TestEtreeAndColCountsAgainstDense(t *testing.T) {
	rng := util.NewRNG(4)
	for trial := 0; trial < 20; trial++ {
		m := AddRandomSymLinks(Grid2D(3+rng.Intn(4), 3+rng.Intn(4), trial%2 == 0), rng.Intn(8), rng)
		parent := EliminationTree(m)
		counts := NewBlockPattern2D(m, 2).ColNnz
		fill := denseSymbolicFill(m)
		n := m.N
		for j := 0; j < n; j++ {
			want := int64(0)
			for i := j; i < n; i++ {
				if fill[i][j] {
					want++
				}
			}
			if counts[j] != want {
				t.Fatalf("trial %d: col %d count %d, want %d", trial, j, counts[j], want)
			}
		}
		// Elimination tree parent must be the first below-diagonal nonzero
		// of the factor column.
		for j := 0; j < n; j++ {
			first := int32(-1)
			for i := j + 1; i < n; i++ {
				if fill[i][j] {
					first = int32(i)
					break
				}
			}
			if parent[j] != first {
				t.Fatalf("trial %d: parent[%d] = %d, want %d", trial, j, parent[j], first)
			}
		}
	}
}

func TestBlockPattern2DAgainstDense(t *testing.T) {
	rng := util.NewRNG(5)
	for trial := 0; trial < 10; trial++ {
		m := AddRandomSymLinks(Grid2D(4+rng.Intn(3), 4+rng.Intn(3), true), rng.Intn(6), rng)
		w := 2 + rng.Intn(3)
		bp := NewBlockPattern2D(m, w)
		fill := denseSymbolicFill(m)
		n := m.N
		nb := (n + w - 1) / w
		if bp.NB != nb {
			t.Fatalf("NB = %d, want %d", bp.NB, nb)
		}
		for J := 0; J < nb; J++ {
			for I := J; I < nb; I++ {
				want := I == J // diagonal always present
				for i := I * w; i < (I+1)*w && i < n && !want; i++ {
					for j := J * w; j < (J+1)*w && j < n; j++ {
						if j <= i && fill[i][j] {
							want = true
							break
						}
					}
				}
				if bp.HasBlock(I, J) != want {
					t.Fatalf("trial %d w=%d: block (%d,%d) = %v, want %v", trial, w, I, J, bp.HasBlock(I, J), want)
				}
			}
		}
	}
}

func TestBlockDims(t *testing.T) {
	m := Grid2D(5, 2, false) // n = 10
	bp := NewBlockPattern2D(m, 4)
	if bp.NB != 3 {
		t.Fatalf("NB = %d", bp.NB)
	}
	if bp.BlockDim(0) != 4 || bp.BlockDim(2) != 2 {
		t.Fatalf("block dims wrong: %d %d", bp.BlockDim(0), bp.BlockDim(2))
	}
	bp1 := NewBlockPattern1D(m, 4)
	if bp1.BlockDim(2) != 2 {
		t.Fatalf("1-D block dim wrong")
	}
}

func TestBlockPattern1DSuccessors(t *testing.T) {
	rng := util.NewRNG(6)
	m := AddRandomUnsymLinks(Grid2D(6, 4, false), 10, rng)
	w := 3
	bp := NewBlockPattern1D(m, w)
	bp2 := NewBlockPattern2D(m.AtAPattern(), w)
	for k := 0; k < bp.NB; k++ {
		succ := map[int32]bool{}
		for _, s := range bp.Succ[k] {
			if s <= int32(k) {
				t.Fatalf("successor not after panel")
			}
			succ[s] = true
		}
		for j := k + 1; j < bp.NB; j++ {
			if bp2.HasBlock(j, k) != succ[int32(j)] {
				t.Fatalf("panel %d succ %d mismatch", k, j)
			}
		}
		if bp.PanelNnz[k] <= 0 {
			t.Fatalf("panel nnz must be positive")
		}
	}
}

func TestSPDValuesAreFactorizable(t *testing.T) {
	rng := util.NewRNG(7)
	m := SPDValues(AddRandomSymLinks(Grid2D(5, 4, true), 8, rng), rng)
	d := m.ToDense()
	if err := blas.Potrf(m.N, d, m.N); err != nil {
		t.Fatalf("SPDValues produced non-PD matrix: %v", err)
	}
	// Symmetry of values.
	d2 := m.ToDense()
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if d2[i*m.N+j] != d2[j*m.N+i] {
				t.Fatalf("values not symmetric")
			}
		}
	}
}

func TestUnsymValuesFactorizable(t *testing.T) {
	rng := util.NewRNG(8)
	m := UnsymValues(AddRandomUnsymLinks(Grid2D(5, 4, false), 12, rng), rng)
	d := m.ToDense()
	piv := make([]float64, m.N)
	if err := blas.Getrf(m.N, m.N, d, m.N, piv); err != nil {
		t.Fatalf("UnsymValues produced singular matrix: %v", err)
	}
}

func TestNamedGeneratorsDimensions(t *testing.T) {
	if testing.Short() {
		t.Skip("named generators are large")
	}
	cases := []struct {
		name string
		m    *Matrix
		n    int
		sym  bool
	}{
		{"BCSSTK15", BCSSTK15Like(), 3948, true},
		{"BCSSTK24", BCSSTK24Like(), 3562, true},
		{"goodwin", GoodwinLike(), 7320, false},
	}
	for _, c := range cases {
		if c.m.N != c.n {
			t.Errorf("%s: N = %d, want %d", c.name, c.m.N, c.n)
		}
		if got := c.m.IsSymmetricPattern(); got != c.sym {
			t.Errorf("%s: symmetric = %v, want %v", c.name, got, c.sym)
		}
	}
}

// TestGridShape: the grid rule never panics or returns a degenerate grid,
// and the shapes rapidd has always produced for its usual orders are pinned
// so plan fingerprints do not move.
func TestGridShape(t *testing.T) {
	pinned := map[int][2]int{120: {12, 10}, 400: {22, 18}, 1496: {44, 34}}
	for _, n := range []int{0, 1, 2, 3, 120, 400, 1496} {
		nx, ny := GridShape(n)
		if nx < 2 || ny < 2 {
			t.Errorf("GridShape(%d) = %d × %d, want both at least 2", n, nx, ny)
		}
		if want, ok := pinned[n]; ok && [2]int{nx, ny} != want {
			t.Errorf("GridShape(%d) = %d × %d, want %d × %d", n, nx, ny, want[0], want[1])
		}
	}
}
