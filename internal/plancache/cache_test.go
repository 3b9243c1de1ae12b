package plancache

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// compileArtifact builds a small chain program whose structure varies with
// variant, so different variants get different fingerprints.
func compileArtifact(t testing.TB, variant int) (string, *plan.Artifact) {
	t.Helper()
	b := graph.NewBuilder()
	prev := graph.ObjID(-1)
	for i := 0; i < 6+variant%3; i++ {
		o := b.Object(fmt.Sprintf("d%d.%d", variant, i), int64(8+i))
		if prev >= 0 {
			b.Task(fmt.Sprintf("t%d.%d", variant, i), float64(10+i), []graph.ObjID{prev}, []graph.ObjID{o})
		} else {
			b.Task(fmt.Sprintf("t%d.%d", variant, i), float64(10+i), nil, []graph.ObjID{o})
		}
		prev = o
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, 2)
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := sched.T3D()
	s, err := sched.ScheduleMPO(g, assign, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint(g, []byte{byte(variant)})
	return fp, &plan.Artifact{Fingerprint: fp, Model: model, Capacity: s.TOT(), Schedule: s, Mem: mp}
}

func TestMemoryAndDiskTiers(t *testing.T) {
	dir := t.TempDir()
	m := trace.NewMetrics()
	c := New(Config{Dir: dir, Metrics: m})
	key, want := compileArtifact(t, 0)

	compiles := 0
	get := func() (*plan.Artifact, Source, error) {
		return c.GetOrCompile(key, func() (*plan.Artifact, error) {
			compiles++
			return want, nil
		})
	}
	art, src, err := get()
	if err != nil || src != SourceCompiled || art != want {
		t.Fatalf("first lookup: src=%v err=%v", src, err)
	}
	art, src, err = get()
	if err != nil || src != SourceMemory || art != want {
		t.Fatalf("second lookup: src=%v err=%v", src, err)
	}
	if compiles != 1 {
		t.Fatalf("compiled %d times", compiles)
	}
	// A fresh cache over the same directory serves from disk, and the
	// decoded artifact is structurally identical (same encoding).
	c2 := New(Config{Dir: dir, Metrics: m})
	art2, src, err := c2.GetOrCompile(key, func() (*plan.Artifact, error) {
		t.Fatal("unexpected recompilation")
		return nil, nil
	})
	if err != nil || src != SourceDisk {
		t.Fatalf("disk lookup: src=%v err=%v", src, err)
	}
	e1, _ := plan.Encode(want)
	e2, err := plan.Encode(art2)
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Error("disk round trip changed the artifact")
	}
	if m.Get("plancache.hit.mem") != 1 || m.Get("plancache.hit.disk") != 1 || m.Get("plancache.miss") != 1 {
		t.Errorf("counters: %v", m.Snapshot())
	}
}

// TestMemoryMissCountsNotEncodes: a cache with no disk tier charges a
// compiled plan the bytes it keeps live — the budget's unit — without
// encoding it. The plan here has long names, so an encoding built on the
// miss would show in the bytes it allocates.
func TestMemoryMissCountsNotEncodes(t *testing.T) {
	key, art := compileArtifact(t, 0)
	g := art.Schedule.G
	var names graph.Names
	for range g.Tasks {
		names.Append(strings.Repeat("t", 16<<10))
	}
	names.Apply(g)
	for i := range g.Objects {
		g.Objects[i].Name = strings.Repeat("o", 16<<10)
	}
	enc, err := plan.Encode(art)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, src, err := c.GetOrCompile(key, func() (*plan.Artifact, error) { return art, nil })
	runtime.ReadMemStats(&m1)
	if err != nil || src != SourceCompiled {
		t.Fatalf("miss: src=%v err=%v", src, err)
	}
	if c.bytes != art.Bytes() {
		t.Fatalf("entry charged %d bytes, the plan keeps %d live", c.bytes, art.Bytes())
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(len(enc))/2 {
		t.Fatalf("the miss allocated %d bytes; the encoding it must not build is %d", alloc, len(enc))
	}
}

// put caches art under key the way a compile miss does.
func put(t *testing.T, c *Cache, key string, art *plan.Artifact) {
	t.Helper()
	if _, _, err := c.GetOrCompile(key, func() (*plan.Artifact, error) { return art, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionUnderTinyBudget(t *testing.T) {
	m := trace.NewMetrics()
	key0, art0 := compileArtifact(t, 0)
	// Budget fits roughly one entry: inserting a second must evict the
	// least recently used one.
	c := New(Config{MemBudget: art0.Bytes() + 16, Metrics: m})
	put(t, c, key0, art0)
	key1, art1 := compileArtifact(t, 1)
	put(t, c, key1, art1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after eviction", c.Len())
	}
	if got := m.Get("plancache.evict"); got != 1 {
		t.Fatalf("evict counter = %d, want 1", got)
	}
	// The survivor is the newer entry; the older one misses.
	if _, src, _ := c.GetOrCompile(key1, nil); src != SourceMemory {
		t.Errorf("newest entry not in memory (src=%v)", src)
	}
	recompiled := false
	if _, src, err := c.GetOrCompile(key0, func() (*plan.Artifact, error) {
		recompiled = true
		return art0, nil
	}); err != nil || src != SourceCompiled || !recompiled {
		t.Errorf("evicted entry: src=%v err=%v recompiled=%v", src, err, recompiled)
	}
	// An entry bigger than the budget is still admitted (never thrash the
	// plan currently in use) but evicts everything else.
	c2 := New(Config{MemBudget: 1, Metrics: trace.NewMetrics()})
	put(t, c2, key0, art0)
	if c2.Len() != 1 {
		t.Fatalf("oversized entry dropped (len=%d)", c2.Len())
	}
}

func TestCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	m := trace.NewMetrics()
	key, art := compileArtifact(t, 0)
	c := New(Config{Dir: dir, Metrics: m})
	put(t, c, key, art)
	path := filepath.Join(dir, key+".rplan")
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)/2] ^= 0xff
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh cache (cold memory tier) must detect the corruption, drop
	// the entry and recompile.
	c2 := New(Config{Dir: dir, Metrics: m})
	recompiled := false
	got, src, err := c2.GetOrCompile(key, func() (*plan.Artifact, error) {
		recompiled = true
		return art, nil
	})
	if err != nil || src != SourceCompiled || !recompiled || got != art {
		t.Fatalf("corrupt entry: src=%v err=%v recompiled=%v", src, err, recompiled)
	}
	if m.Get("plancache.corrupt") != 1 {
		t.Errorf("corrupt counter = %d, want 1", m.Get("plancache.corrupt"))
	}
	// The store healed itself: the next cold lookup hits disk again.
	c3 := New(Config{Dir: dir, Metrics: m})
	if _, src, err := c3.GetOrCompile(key, nil); err != nil || src != SourceDisk {
		t.Errorf("after heal: src=%v err=%v", src, err)
	}
}

func TestSingleFlight(t *testing.T) {
	m := trace.NewMetrics()
	c := New(Config{Metrics: m})
	key, art := compileArtifact(t, 0)

	const waiters = 9
	var compiles atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompile(key, func() (*plan.Artifact, error) {
			compiles.Add(1)
			close(entered)
			<-release
			return art, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-entered
	// The compile is parked; everyone arriving now must share its flight.
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.GetOrCompile(key, func() (*plan.Artifact, error) {
				compiles.Add(1)
				return art, nil
			})
			if err != nil || got != art {
				t.Errorf("waiter: got=%v err=%v", got, err)
			}
		}()
	}
	// Wait until all waiters have registered on the flight, then release.
	deadline := time.Now().Add(10 * time.Second)
	for m.Get("plancache.shared") < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters registered", m.Get("plancache.shared"), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("compiled %d times, want 1", n)
	}
	if m.Get("plancache.miss") != 1 {
		t.Errorf("miss counter = %d, want 1", m.Get("plancache.miss"))
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	c := New(Config{})
	for _, key := range []string{"", "../escape", "ABCDEF", "deadbeef/../../x"} {
		if _, _, err := c.GetOrCompile(key, nil); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}

// TestPoisonedDiskEntryRejected seeds the disk tier with a plan whose bytes
// are intact (checksum passes) but whose semantics are defective: the MAP
// allocations were stripped, so every volatile use is use-before-MAP. The
// cache must reject it via the static verifier and recompile instead of
// serving the poisoned plan.
func TestPoisonedDiskEntryRejected(t *testing.T) {
	dir := t.TempDir()
	m := trace.NewMetrics()
	key, art := compileArtifact(t, 0)
	poisoned := func() *plan.Artifact {
		_, a := compileArtifact(t, 0)
		for p := range a.Mem.Procs {
			for mi := range a.Mem.Procs[p].MAPs {
				a.Mem.Procs[p].MAPs[mi].Allocs = nil
				a.Mem.Procs[p].MAPs[mi].Notify = mem.Notify{}
			}
		}
		return a
	}()
	if res := verify.CheckArtifact(poisoned); res.OK() {
		t.Fatal("poisoned artifact unexpectedly verifies clean")
	}
	enc, err := plan.Encode(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".rplan")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir, Metrics: m})
	recompiled := false
	got, src, err := c.GetOrCompile(key, func() (*plan.Artifact, error) {
		recompiled = true
		return art, nil
	})
	if err != nil || src != SourceCompiled || !recompiled || got != art {
		t.Fatalf("poisoned entry served: src=%v err=%v recompiled=%v", src, err, recompiled)
	}
	if m.Get("plancache.rejected") != 1 {
		t.Errorf("rejected counter = %d, want 1", m.Get("plancache.rejected"))
	}
	// The recompiled plan replaced the poisoned bytes on disk, and what the
	// loader serves carries the verdict of the loader's own check.
	c2 := New(Config{Dir: dir, Metrics: m})
	healed, src, err := c2.GetOrCompile(key, nil)
	if err != nil || src != SourceDisk {
		t.Fatalf("after heal: src=%v err=%v", src, err)
	}
	if !healed.Verified() {
		t.Error("disk-loaded artifact does not carry the loader's verdict")
	}
}

// TestMiskeyedDiskEntryRejected stores a valid plan under the wrong
// fingerprint: content addressing must notice the stored fingerprint does
// not match the key.
func TestMiskeyedDiskEntryRejected(t *testing.T) {
	dir := t.TempDir()
	m := trace.NewMetrics()
	keyA, artA := compileArtifact(t, 0)
	_, artB := compileArtifact(t, 1)
	enc, err := plan.Encode(artB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, keyA+".rplan"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir, Metrics: m})
	got, src, err := c.GetOrCompile(keyA, func() (*plan.Artifact, error) { return artA, nil })
	if err != nil || src != SourceCompiled || got != artA {
		t.Fatalf("mis-keyed entry served: src=%v err=%v", src, err)
	}
	if m.Get("plancache.rejected") != 1 {
		t.Errorf("rejected counter = %d, want 1", m.Get("plancache.rejected"))
	}
}

// TestAttachLookup: a name attached to an entry finds the plan and the
// value without the fingerprint, counts as a memory hit, keeps its first
// value, and goes when the plan goes — by eviction or by replacement.
func TestAttachLookup(t *testing.T) {
	m := trace.NewMetrics()
	key0, art0 := compileArtifact(t, 0)
	key1, art1 := compileArtifact(t, 1)
	// Room for both plans and 100 bytes of attached values, no more.
	c := New(Config{MemBudget: art0.Bytes() + art1.Bytes() + 100, Metrics: m})
	if _, _, ok := c.Lookup("a"); ok {
		t.Fatal("Lookup of a name never attached hit")
	}
	c.Attach(key0, "a", 1, 10) // no such entry yet: nothing happens
	if _, _, ok := c.Lookup("a"); ok {
		t.Fatal("Attach to a fingerprint the cache does not hold took effect")
	}
	put(t, c, key0, art0)
	put(t, c, key1, art1)
	c.Attach(key0, "a", "first", 60)
	c.Attach(key0, "a", "second", 60) // the first attachment stands
	c.Attach(key0, "bare", nil, 0)
	hits := m.Get("plancache.hit.mem")
	art, val, ok := c.Lookup("a")
	if !ok || art != art0 || val != "first" {
		t.Fatalf("Lookup(a) = %p, %v, %v; want %p, first, true", art, val, ok, art0)
	}
	if art, val, ok := c.Lookup("bare"); !ok || art != art0 || val != nil {
		t.Fatalf("Lookup(bare) = %p, %v, %v; want %p, nil, true", art, val, ok, art0)
	}
	if got := m.Get("plancache.hit.mem") - hits; got != 2 {
		t.Fatalf("two Lookup hits counted %d plancache.hit.mem", got)
	}
	// The attached bytes are charged to the budget: 60 + 60 overflows it,
	// and the least recently used entry — key0, names and all — goes.
	c.Attach(key1, "b", "other", 60)
	if c.Len() != 1 || m.Get("plancache.evict") != 1 {
		t.Fatalf("Len = %d, evictions = %d; want 1, 1", c.Len(), m.Get("plancache.evict"))
	}
	for _, name := range []string{"a", "bare"} {
		if _, _, ok := c.Lookup(name); ok {
			t.Fatalf("name %q outlived its plan", name)
		}
	}
	if _, val, ok := c.Lookup("b"); !ok || val != "other" {
		t.Fatalf("Lookup(b) = %v, %v", val, ok)
	}
	// A name freed by eviction can be attached again.
	put(t, c, key0, art0)
	c.Attach(key0, "a", "third", 1)
	if _, val, _ := c.Lookup("a"); val != "third" {
		t.Fatalf("re-attached name reads %v", val)
	}
	// Replacing the artifact under a fingerprint drops the names given to
	// the old one: a miss that loses the race to fill its key stores over
	// the winner's entry.
	if err := c.store(key0, art0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup("a"); ok {
		t.Fatal("name survived the replacement of its artifact")
	}
	if c.bytes != art0.Bytes()+art1.Bytes()+60 {
		t.Fatalf("bytes = %d, want the two plans + 60", c.bytes)
	}

	// No memory tier: nothing to attach to.
	off := New(Config{MemBudget: -1})
	put(t, off, key0, art0)
	off.Attach(key0, "a", 1, 1)
	if _, _, ok := off.Lookup("a"); ok {
		t.Fatal("Lookup hit with the memory tier off")
	}
}

// TestSoleEntryShedsOldestNames: the entry in use is never evicted, so
// values attached to it are what the budget can still take back — all but
// the newest, oldest first.
func TestSoleEntryShedsOldestNames(t *testing.T) {
	m := trace.NewMetrics()
	key, art := compileArtifact(t, 0)
	c := New(Config{MemBudget: art.Bytes() + 25, Metrics: m})
	put(t, c, key, art)
	for i := 0; i < 5; i++ {
		c.Attach(key, fmt.Sprint("seed", i), i, 10)
	}
	for i, want := range []bool{false, false, false, true, true} {
		if _, _, ok := c.Lookup(fmt.Sprint("seed", i)); ok != want {
			t.Errorf("seed%d held = %v, want %v", i, ok, want)
		}
	}
	if got := m.Get("plancache.detach"); got != 3 {
		t.Errorf("plancache.detach = %d, want 3", got)
	}
	// One value bigger than the whole budget still stays: it is the newest.
	c.Attach(key, "huge", nil, 1<<20)
	if _, _, ok := c.Lookup("huge"); !ok || c.Len() != 1 {
		t.Errorf("newest name dropped (held=%v, Len=%d)", ok, c.Len())
	}
	if c.bytes != art.Bytes()+1<<20 {
		t.Errorf("bytes = %d, want plan + huge", c.bytes)
	}
}
