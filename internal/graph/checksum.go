package graph

import (
	"math"
	"slices"

	"repro/internal/util"
)

// checksumMask keeps a checksum word below 2⁴⁰, where a float64 holds
// every integer exactly: a buffer's bits are then a function of the words
// it was computed from, whatever order of float operations produced it.
const checksumMask = 1<<40 - 1

// Checksum gives any task graph data whose final value is a function of
// the program alone, so a parallel run can be checked bit for bit against
// a sequential one. An object holds Size float64 words, each an integer
// below 2⁴⁰:
//
//   - init fills word k of object o from a hash of (o, k);
//   - a task writes word k of each output o as hash(task, o, k, every word
//     of every input) mod 2⁴⁰;
//   - a commutative task instead adds that term into the word, modulo 2⁴⁰,
//     and its term does not read the objects it accumulates into, so any
//     order of a commuting group gives the same bits.
//
// kernel and init are assignable to the executor's KernelFunc and
// InitFunc. want is the sequential reference, indexed by object: every
// object filled by init, then kernel run over g.TopoSort().
func Checksum(g *DAG) (kernel func(TaskID, func(ObjID) []float64) error, init func(ObjID, []float64), want [][]float64) {
	kernel = func(t TaskID, get func(ObjID) []float64) error {
		writes := g.Writes(t)
		commutative := g.Tasks[t].Commutative
		h := util.Hash64(uint64(t))
		for _, o := range g.Reads(t) {
			if commutative && slices.Contains(writes, o) {
				continue
			}
			h = util.Hash64(h, uint64(o))
			for _, w := range get(o) {
				h = util.Hash64(h, math.Float64bits(w))
			}
		}
		for _, o := range writes {
			buf := get(o)
			for k := range buf {
				v := util.Hash64(h, uint64(o), uint64(k))
				if commutative {
					v += uint64(buf[k])
				}
				buf[k] = float64(v & checksumMask)
			}
		}
		return nil
	}
	init = func(o ObjID, buf []float64) {
		for k := range buf {
			buf[k] = float64(util.Hash64(^uint64(o), uint64(k)) & checksumMask)
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		panic(err) // a built graph is acyclic
	}
	want = make([][]float64, len(g.Objects))
	for o := range want {
		want[o] = make([]float64, g.Objects[o].Size)
		init(ObjID(o), want[o])
	}
	get := func(o ObjID) []float64 { return want[o] }
	for _, t := range order {
		kernel(t, get)
	}
	return kernel, init, want
}
