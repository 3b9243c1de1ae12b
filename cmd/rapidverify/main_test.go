package main

import (
	"path/filepath"
	"testing"
)

const corpus = "../../internal/verify/testdata/badplans"

func TestCorpusExpectFail(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpus, "*.rplan"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	if code := runFiles(files, true); code != 0 {
		t.Fatalf("expect-fail over the corpus exited %d", code)
	}
	// Without -expect-fail, the same corpus must fail.
	if code := runFiles(files, false); code != 1 {
		t.Fatalf("plain run over the corpus exited %d, want 1", code)
	}
}

func TestBuiltinPlansPass(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 16 plans")
	}
	if code := runBuiltin(3, 80, 8, 1); code != 0 {
		t.Fatalf("builtin plans failed verification (exit %d)", code)
	}
}

// TestBuiltinRejectsNonPositiveOrder: -n 0 used to divide by zero in the
// grid-shape formula; it is a usage error (status 2).
func TestBuiltinRejectsNonPositiveOrder(t *testing.T) {
	for _, n := range []int{0, -5} {
		if code := runBuiltin(3, n, 8, 1); code != 2 {
			t.Fatalf("-builtin -n %d exited %d, want 2", n, code)
		}
	}
}
