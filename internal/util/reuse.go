package util

// Reuse returns s resliced to length n and zeroed, or a new zeroed slice
// of length n when s's capacity is short of n or more than twice n. A
// slice recycled across runs of different sizes thus keeps at most twice
// what the current run uses: one large run does not pin its arrays under
// every small run after it.
func Reuse[T any](s []T, n int) []T {
	if c := cap(s); c < n || c > 2*n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
