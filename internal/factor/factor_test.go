package factor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
	"repro/rapid"
)

// matrixHash is SHA-256 over ColPtr, RowIdx (each entry as a little-endian
// uint64) and the values' IEEE bits.
func matrixHash(a *sparse.Matrix) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range a.ColPtr {
		put(uint64(v))
	}
	for _, v := range a.RowIdx {
		put(uint64(v))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMatrixBytesPinned: the generator is what rapidd's buildProblem was at
// commit 0efa92a, byte for byte — the hashes were taken there. Plan-cache
// keys, coalescing and bench/'s serve_* structures all hang off these
// bytes; a change here is a change of every fingerprint.
func TestMatrixBytesPinned(t *testing.T) {
	for _, c := range []struct {
		kind   string
		n      int
		order  int
		nnz    int
		sha256 string
	}{
		{"chol", 120, 120, 980, "978b1f8b84c89bcafcf917155313e495b47fe64beaa79c6ca4fa293d17f938ea"},
		{"chol", 400, 396, 3424, "7b97255d91c58b0b27a41655c3ec172fbf2fce47ff49e396b5dbb1eb2149cf0c"},
		{"lu", 1496, 1496, 13374, "e22267446c9da43413608895b62ad244ec65fd41f5ce3f6f5204b331365cd13c"},
	} {
		a, err := Matrix(c.kind, c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.N != c.order || a.Nnz() != c.nnz {
			t.Errorf("%s n=%d: order %d nnz %d, want %d and %d", c.kind, c.n, a.N, a.Nnz(), c.order, c.nnz)
		}
		if got := matrixHash(a); got != c.sha256 {
			t.Errorf("%s n=%d: matrix bytes moved: sha256 %s, want %s", c.kind, c.n, got, c.sha256)
		}
	}
}

// TestMatrixRefusesBadInput: n < 1 (which used to divide by zero in the
// grid-shape formula) and unknown kinds are refused here, once, for every
// caller; the tools print the error after their name and exit 2.
func TestMatrixRefusesBadInput(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := Matrix("chol", n, 1); err == nil || !strings.HasPrefix(err.Error(), "-n must be at least 1") {
			t.Errorf("n=%d: error %v", n, err)
		}
	}
	if _, err := Matrix("qr", 100, 1); err == nil {
		t.Error("unknown kind generated a matrix")
	}
	a, _ := Matrix("chol", 100, 1)
	if _, err := Build("qr", a, 2, 8); err == nil {
		t.Error("unknown kind built a problem")
	}
}

// TestResidualsPinned: chol.Problem.Residual and lu.Problem.SolveError are
// the arithmetic rapidd's cholResidual and luResidual did at commit
// 0efa92a, including the seed+12345 rule of LU's known solution: on the
// sequential factor of the (kind, 120, 1) matrix they return the very bits
// measured there.
func TestResidualsPinned(t *testing.T) {
	for _, c := range []struct {
		kind string
		bits uint64
	}{
		{"chol", 0x3ca45df10707f243}, // 1.4132416790467954e-16
		{"lu", 0x3d32000000000000},   // 6.394884621840902e-14
	} {
		a, err := Matrix(c.kind, 120, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := Build(c.kind, a, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		objects, err := pb.Sequential()
		if err != nil {
			t.Fatal(err)
		}
		if got := pb.Residual(objects, 1); math.Float64bits(got) != c.bits {
			t.Errorf("%s: %s = %v (bits %#x), want %v", c.kind, pb.Check, got, math.Float64bits(got), math.Float64frombits(c.bits))
		}
	}
}

// TestAdoptRunsOnThePlansGraph: a problem that has taken a decoded plan's
// copy of the task graph for its own — kernels, initializers and the
// sequential reference now read that copy — computes the very bits the
// problem as built computes, and holds no second graph.
func TestAdoptRunsOnThePlansGraph(t *testing.T) {
	for _, kind := range Kinds {
		a, err := Matrix(kind, 120, 1)
		if err != nil {
			t.Fatal(err)
		}
		built, err := Build(kind, a, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		adopted, err := Build(kind, a, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := rapid.Compile(built.Program, rapid.Options{Procs: 4, Heuristic: rapid.MPO})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := rapid.MarshalPlan(compiled)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := rapid.UnmarshalPlan(enc)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Schedule.G == adopted.Program.G {
			t.Fatal("a decoded plan shares the built graph; the test proves nothing")
		}
		adopted.Adopt(decoded)
		if adopted.Program.G != decoded.Schedule.G {
			t.Fatalf("%s: after Adopt the program's graph is not the plan's", kind)
		}
		if adopted.Bytes <= 0 || adopted.Bytes != built.Bytes {
			t.Errorf("%s: Bytes %d and %d for one matrix", kind, adopted.Bytes, built.Bytes)
		}
		want, err := rapid.Execute(built.Program, compiled, built.Exec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rapid.Execute(adopted.Program, decoded, adopted.Exec)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := adopted.Sequential()
		if err != nil {
			t.Fatal(err)
		}
		r := built.Residual(want.Objects, 1)
		for name, objects := range map[string]map[rapid.ObjID][]float64{"executed": got.Objects, "sequential": seq} {
			if g := adopted.Residual(objects, 1); math.Float64bits(g) != math.Float64bits(r) {
				t.Errorf("%s: %s residual on the adopted graph %v, as built %v", kind, name, g, r)
			}
		}
	}
}

// TestMemoryPercentIsCompilesTOT: TOT read off the assignment stage alone
// is the TOT of the compiled plan, for both kinds under every heuristic,
// and a positive percentage is never the "unconstrained" 0.
func TestMemoryPercentIsCompilesTOT(t *testing.T) {
	heuristics := []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge, rapid.TreeMem}
	for _, kind := range Kinds {
		for _, n := range []int{1, 120} {
			a, err := Matrix(kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := Build(kind, a, 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range heuristics {
				opt := rapid.Options{Procs: 4, Heuristic: h}
				plan, err := rapid.Compile(pb.Program, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, pct := range []int{1, 40, 60, 100} {
					memory, tot, err := rapid.MemoryPercent(pb.Program, opt, pct)
					if err != nil {
						t.Fatal(err)
					}
					if tot != plan.TOT() {
						t.Fatalf("%s n=%d %v: assignment-only TOT %d, compiled plan's %d", kind, n, h, tot, plan.TOT())
					}
					if want := max(1, tot*int64(pct)/100); memory != want {
						t.Fatalf("%s n=%d %v: %d%% of %d is %d, want %d", kind, n, h, pct, tot, memory, want)
					}
				}
			}
		}
	}
}

// TestPlanBytesPinned: the inspector's output is a function of its input,
// not of how its tables are laid out. The digests were taken at commit
// 7ba6f29, before the builder, the schedulers, the MAP planner and Derive
// gave up their hash maps; a change that moves one has changed a plan, so
// every cached plan, fingerprint and golden table moves with it.
func TestPlanBytesPinned(t *testing.T) {
	for _, c := range []struct {
		kind        string
		n, block    int
		h           rapid.Heuristic
		pct         int
		plan, print string
	}{
		{"chol", 400, 8, rapid.MPO, 0,
			"0469b3c05768196677a1409d56e3ed5968715a67f3b6a9ae3bec3e65140757b7",
			"8c2c6b70450625712703056dbe5b3b018ff99b96766133103d0f067aaa5c88e3"},
		{"chol", 1496, 12, rapid.DTSMerge, 40,
			"419af6bf9e48a8f1039ac2a04113631bac6de9f0703a71ef4b7b36c092669266",
			"0df6651cdf6e1d0699b6933a66be4e470093081afeb7ce2992dab000670db51f"},
		{"lu", 1496, 16, rapid.MPO, 0,
			"3c4cb9fe4774375b507eb9b9699a567843bb716ea9adcf003240baf71fa40161",
			"40c29d3a5b9b04b2e6b01c949ca6cf4b10e4d50a375ead97052956d2706117fc"},
		{"chol", 1496, 12, rapid.DTS, 60,
			"97ff8b6552e1982c6dbb21d44beee8fe16e5e2bf1606e7a39d8a063b34c72376",
			"85622bef5c0148fd33c733896c7e9721705abb375c61e009ed598ea2d2a1c55a"},
		{"lu", 400, 8, rapid.RCP, 50,
			"91ccee36c51558696efc55efd151fc93e33661e33025add5911cc5c2e28c8637",
			"720a3907a5b201c0cfc1a4d95c0695ddb424dbba48ee2af1bbfe4111ab16a2c5"},
	} {
		a, err := Matrix(c.kind, c.n, 7)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := Build(c.kind, a, 4, c.block)
		if err != nil {
			t.Fatal(err)
		}
		opt := rapid.Options{Procs: 4, Heuristic: c.h}
		if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, c.pct); err != nil {
			t.Fatal(err)
		}
		pl, err := rapid.Compile(pb.Program, opt)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rapid.MarshalPlan(pl)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.plan {
			t.Errorf("%s n=%d block=%d %v %d%%: plan bytes moved: sha256 %s, want %s", c.kind, c.n, c.block, c.h, c.pct, got, c.plan)
		}
		if got := rapid.Fingerprint(pb.Program, opt); got != c.print {
			t.Errorf("%s n=%d block=%d %v %d%%: fingerprint moved: %s, want %s", c.kind, c.n, c.block, c.h, c.pct, got, c.print)
		}
	}
}
