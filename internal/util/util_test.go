package util

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(200)
	if b.Count() != 0 {
		t.Fatalf("new bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.Set(i)
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	if !b.Has(63) || !b.Has(64) || b.Has(62) {
		t.Fatalf("Has wrong")
	}
	b.Clear(63)
	if b.Has(63) || b.Count() != 7 {
		t.Fatalf("Clear wrong")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 1, 64, 65, 127, 128, 199}
	if len(got) != len(want) {
		t.Fatalf("ForEach got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach got %v want %v", got, want)
		}
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Reset failed")
	}
}

func TestBitsetOr(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(3)
	b.Set(70)
	a.Or(b)
	if !a.Has(3) || !a.Has(70) || a.Count() != 2 {
		t.Fatalf("Or wrong")
	}
}

func TestBitsetPropertySetHas(t *testing.T) {
	f := func(xs []uint16) bool {
		b := NewBitset(1 << 16)
		seen := map[int]bool{}
		for _, x := range xs {
			b.Set(int(x))
			seen[int(x)] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for x := range seen {
			if !b.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatalf("zero seed produced zero stream")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGNormRoughMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	varr := sum2/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	if varr < 0.9 || varr > 1.1 {
		t.Fatalf("variance %v too far from 1", varr)
	}
}

// TestReuse: a recycled slice comes back zeroed at the asked length, in
// place while its capacity is within twice that length, and as a new slice
// otherwise.
func TestReuse(t *testing.T) {
	s := make([]int, 6, 8)
	for i := range s {
		s[i] = i + 1
	}
	r := Reuse(s, 5)
	if len(r) != 5 || &r[0] != &s[0] {
		t.Fatalf("Reuse(cap 8, 5): len %d, in place %v; want 5, true", len(r), &r[0] == &s[0])
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("Reuse left r[%d] = %d, want 0", i, v)
		}
	}
	if r := Reuse(s, 9); len(r) != 9 || &r[0] == &s[0] {
		t.Fatalf("Reuse(cap 8, 9) must allocate")
	}
	if r := Reuse(s, 3); len(r) != 3 || &r[0] == &s[0] {
		t.Fatalf("Reuse(cap 8, 3) must let the large array go")
	}
	if r := Reuse[int](nil, 0); r != nil {
		t.Fatalf("Reuse(nil, 0) = %v, want nil", r)
	}
}
