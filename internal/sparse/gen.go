package sparse

import (
	"math"

	"repro/internal/util"
)

// GridShape returns the dimensions of the nx × ny grid the built-in problem
// generators (rapidsolve, rapidverify -builtin, rapidd) lay a matrix of
// order about n on: nx ≈ √(1.3 n) and ny = n / nx, neither below 2.
func GridShape(n int) (nx, ny int) {
	nx = max(2, int(math.Sqrt(1.3*float64(n))))
	return nx, max(2, n/nx)
}

// Grid2D returns the symmetric pattern of a 9-point (stencil9=true) or
// 5-point finite-difference/element operator on an nx×ny grid, diagonal
// included. This is the classic structural-analysis-like sparsity that the
// Harwell-Boeing BCSSTK matrices exhibit.
func Grid2D(nx, ny int, stencil9 bool) *Matrix {
	n := nx * ny
	id := func(x, y int) int32 { return int32(y*nx + x) }
	coords := make([]coord, 0, n*9)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			c := id(x, y)
			coords = append(coords, coord{c, c})
			add := func(x2, y2 int) {
				if x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny {
					return
				}
				r := id(x2, y2)
				coords = append(coords, coord{r, c}, coord{c, r})
			}
			add(x+1, y)
			add(x, y+1)
			if stencil9 {
				add(x+1, y+1)
				add(x-1, y+1)
			}
		}
	}
	return FromCoords(n, coords)
}

// Grid3D returns the symmetric pattern of a 7-point operator on an
// nx×ny×nz grid, diagonal included.
func Grid3D(nx, ny, nz int) *Matrix {
	n := nx * ny * nz
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	coords := make([]coord, 0, n*7)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := id(x, y, z)
				coords = append(coords, coord{c, c})
				add := func(x2, y2, z2 int) {
					if x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny || z2 < 0 || z2 >= nz {
						return
					}
					r := id(x2, y2, z2)
					coords = append(coords, coord{r, c}, coord{c, r})
				}
				add(x+1, y, z)
				add(x, y+1, z)
				add(x, y, z+1)
			}
		}
	}
	return FromCoords(n, coords)
}

// AddRandomSymLinks adds k random symmetric off-diagonal entry pairs to the
// pattern, modelling the irregular long-range couplings (multi-point
// constraints, rigid links) that make real structural matrices harder than
// pure grids.
func AddRandomSymLinks(m *Matrix, k int, rng *util.RNG) *Matrix {
	coords := make([]coord, 0, m.Nnz()+2*k)
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j) {
			coords = append(coords, coord{i, int32(j)})
		}
	}
	for t := 0; t < k; t++ {
		i := int32(rng.Intn(m.N))
		j := int32(rng.Intn(m.N))
		if i == j {
			continue
		}
		coords = append(coords, coord{i, j}, coord{j, i})
	}
	return FromCoords(m.N, coords)
}

// AddRandomUnsymLinks adds k random off-diagonal entries without their
// transposes, producing the unsymmetric patterns typical of the goodwin
// fluid-mechanics matrix.
func AddRandomUnsymLinks(m *Matrix, k int, rng *util.RNG) *Matrix {
	coords := make([]coord, 0, m.Nnz()+k)
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j) {
			coords = append(coords, coord{i, int32(j)})
		}
	}
	for t := 0; t < k; t++ {
		i := int32(rng.Intn(m.N))
		j := int32(rng.Intn(m.N))
		if i == j {
			continue
		}
		coords = append(coords, coord{i, j})
	}
	return FromCoords(m.N, coords)
}

// Truncate returns the leading principal submatrix of order k (rows and
// columns 0..k-1), mirroring the paper's "take data from column/row 1 up to
// 5600" experiments with BCSSTK33.
func (m *Matrix) Truncate(k int) *Matrix {
	coords := make([]coord, 0, m.Nnz())
	for j := 0; j < k && j < m.N; j++ {
		for _, i := range m.Col(j) {
			if int(i) < k {
				coords = append(coords, coord{i, int32(j)})
			}
		}
	}
	return FromCoords(k, coords)
}

// SPDValues fills values making the matrix symmetric positive definite:
// off-diagonal entries get deterministic values in (-1, 0) and each diagonal
// entry exceeds the absolute row sum (diagonal dominance).
func SPDValues(m *Matrix, rng *util.RNG) *Matrix {
	out := m.Clone()
	out.Val = make([]float64, out.Nnz())
	rowSum := make([]float64, out.N)
	// First pass: assign symmetric off-diagonal values from a hash of the
	// (min,max) index pair so A[i][j] == A[j][i] without a second lookup.
	for j := 0; j < out.N; j++ {
		col := out.Col(j)
		vals := out.ColVal(j)
		for k, i := range col {
			if int(i) == j {
				continue
			}
			lo, hi := i, int32(j)
			if lo > hi {
				lo, hi = hi, lo
			}
			h := util.NewRNG(uint64(lo)*0x1000193 ^ uint64(hi)<<21 ^ 0xABCD)
			v := -(0.1 + 0.9*h.Float64())
			vals[k] = v
			rowSum[i] += -v
		}
	}
	for j := 0; j < out.N; j++ {
		col := out.Col(j)
		vals := out.ColVal(j)
		for k, i := range col {
			if int(i) == j {
				vals[k] = rowSum[i] + 1 + rng.Float64()
			}
		}
	}
	return out
}

// UnsymValues fills values for an unsymmetric matrix: deterministic
// pseudo-random off-diagonals and dominant diagonals, keeping LU with
// partial pivoting well behaved while still exercising row interchanges.
func UnsymValues(m *Matrix, rng *util.RNG) *Matrix {
	out := m.Clone()
	out.Val = make([]float64, out.Nnz())
	rowSum := make([]float64, out.N)
	diagIdx := make([]int, out.N)
	for i := range diagIdx {
		diagIdx[i] = -1
	}
	for j := 0; j < out.N; j++ {
		col := out.Col(j)
		vals := out.ColVal(j)
		for k, i := range col {
			if int(i) == j {
				diagIdx[j] = int(out.ColPtr[j]) + k
				continue
			}
			v := rng.NormFloat64()
			vals[k] = v
			if v < 0 {
				rowSum[i] -= v
			} else {
				rowSum[i] += v
			}
		}
	}
	for j := 0; j < out.N; j++ {
		if k := diagIdx[j]; k >= 0 {
			// Mostly dominant, but every fifth diagonal is made small so
			// partial pivoting has real row interchanges to perform.
			switch {
			case j%5 == 2:
				out.Val[k] = 1e-3 * (1 + rng.Float64())
			case j%7 == 3:
				out.Val[k] = -(0.5*rowSum[j] + 1 + rng.Float64())
			default:
				out.Val[k] = 0.5*rowSum[j] + 1 + rng.Float64()
			}
		}
	}
	return out
}

// The named generators below stand in for the paper's Harwell-Boeing test
// matrices. Dimensions match the originals; patterns are synthetic
// (grid stencils plus irregular links) since the HB files cannot be shipped
// with an offline module. See DESIGN.md §2 for the substitution argument.

// BCSSTK15Like returns a symmetric pattern with n=3948 (the order of
// BCSSTK15, a structural engineering stiffness matrix).
func BCSSTK15Like() *Matrix {
	m := Grid2D(94, 42, true) // 3948 nodes
	return AddRandomSymLinks(m, 1400, util.NewRNG(15))
}

// BCSSTK24Like returns a symmetric pattern with n=3562 (the order of
// BCSSTK24).
func BCSSTK24Like() *Matrix {
	m := Grid2D(137, 26, true) // 3562 nodes
	return AddRandomSymLinks(m, 1200, util.NewRNG(24))
}

// GoodwinLike returns an unsymmetric pattern with n=7320 (the order of the
// goodwin fluid-mechanics matrix).
func GoodwinLike() *Matrix {
	m := Grid2D(120, 61, true) // 7320 nodes
	return AddRandomUnsymLinks(m, 9000, util.NewRNG(7320))
}

// BCSSTK33Like returns a symmetric pattern with n=8738 (the order of
// BCSSTK33); the paper truncates it to leading submatrices (5600, 6080).
func BCSSTK33Like() *Matrix {
	m := Grid2D(257, 34, true) // 8738 nodes
	return AddRandomSymLinks(m, 5000, util.NewRNG(33))
}
