package util

import "unsafe"

// SliceBytes is the heap a slice's backing array takes from its start:
// its capacity times its element size. Summed over the slices a value
// holds, it is what the value keeps live, short of the allocator's
// rounding up to a size class.
func SliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}
