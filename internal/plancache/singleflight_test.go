package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupCoalesces: N concurrent Do calls with one key run fn once;
// exactly one caller reports shared=false and all see the same result.
func TestGroupCoalesces(t *testing.T) {
	var g Group
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var leaders atomic.Int64
	var wg, attached sync.WaitGroup
	attached.Add(n - 1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.DoNotify("k", func() (any, error) {
				calls.Add(1)
				<-gate // hold the flight open until all callers joined
				return 42, nil
			}, attached.Done)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if v != 42 {
				t.Errorf("Do returned %v, want 42", v)
			}
			if !shared {
				leaders.Add(1)
			}
		}()
	}
	// Release the leader only once every other caller has attached to its
	// flight; a caller arriving later would start a flight of its own.
	attached.Wait()
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d callers saw shared=false, want exactly 1", got)
	}
	// The flight is cleared once it lands: a later call runs fn again.
	if _, shared, _ := g.DoNotify("k", func() (any, error) { calls.Add(1); return 42, nil }, nil); shared || calls.Load() != 2 {
		t.Fatalf("flight not cleared after landing: shared=%v, fn ran %d times", shared, calls.Load())
	}
}

// TestGroupDistinctKeysRunConcurrently: two keys must not serialize.
func TestGroupDistinctKeysRunConcurrently(t *testing.T) {
	var g Group
	aStarted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.DoNotify("a", func() (any, error) {
			close(aStarted)
			<-release
			return nil, nil
		}, nil)
	}()
	<-aStarted
	// If keys serialized, this would deadlock (a's flight never releases).
	if _, shared, err := g.DoNotify("b", func() (any, error) { return "b", nil }, nil); shared || err != nil {
		t.Fatalf("key b: shared=%v err=%v", shared, err)
	}
	close(release)
	<-done
}

// TestGroupSharesErrors: sharers receive the flight's error; a later call
// retries (nothing is memoized).
func TestGroupSharesErrors(t *testing.T) {
	var g Group
	wantErr := errors.New("boom")
	_, shared, err := g.DoNotify("k", func() (any, error) { return nil, wantErr }, nil)
	if shared || !errors.Is(err, wantErr) {
		t.Fatalf("first call: shared=%v err=%v", shared, err)
	}
	v, shared, err := g.DoNotify("k", func() (any, error) { return 7, nil }, nil)
	if shared || err != nil || v != 7 {
		t.Fatalf("retry after error: v=%v shared=%v err=%v", v, shared, err)
	}
}

// TestGroupSequentialCallsRunEachTime: DoNotify is a coalescer, not a cache.
func TestGroupSequentialCallsRunEachTime(t *testing.T) {
	var g Group
	calls := 0
	for i := 0; i < 3; i++ {
		v, shared, err := g.DoNotify("k", func() (any, error) {
			calls++
			return fmt.Sprintf("r%d", calls), nil
		}, nil)
		if shared || err != nil {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
		if want := fmt.Sprintf("r%d", i+1); v != want {
			t.Fatalf("call %d returned %v, want %v", i, v, want)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
}
