// Package plancache caches compiled execution plans under their structural
// fingerprint (see internal/plan), so repeated executions of the same
// irregular structure skip the inspector phase entirely.
//
// The cache is two-tier:
//
//   - an in-memory LRU of artifacts, bounded by the heap bytes its entries
//     keep live (plan.Artifact.Bytes, counted, not measured: no plan is
//     encoded to be sized), and
//   - an optional on-disk content-addressed store (one file per
//     fingerprint under a cache directory) that survives process restarts.
//
// A caller that can name a plan without building the program it was compiled
// from — a daemon that knows which request resolves to which plan — attaches
// that name to the entry (Attach) and finds the plan by it from then on
// (Lookup): one map lookup, no fingerprint. A name may carry a value, whose
// size is charged to the entry: the memory budget bounds plans and what hangs
// on them together, and a name goes when its plan goes.
//
// Lookups are single-flight: concurrent requests for the same fingerprint
// compile once and share the result. Disk entries are statically verified
// on load (internal/verify); corrupted, unreadable, mis-keyed or
// semantically defective entries are deleted and fall back to
// recompilation — the cache can only ever trade time, never correctness.
//
// Counters are reported through a trace.Metrics registry:
//
//	plancache.hit.mem    lookups served from the in-memory LRU, by
//	                     fingerprint or by name
//	plancache.hit.disk   lookups decoded from the disk store
//	plancache.miss       lookups that had to compile
//	plancache.evict      entries evicted from the LRU
//	plancache.detach     names dropped, oldest first, from the one entry
//	                     left when it alone is over the budget
//	plancache.corrupt    disk entries dropped as corrupted/unreadable
//	plancache.rejected   disk entries dropped by the static verifier
//	plancache.shared     lookups that piggybacked on an in-flight compile
package plancache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/iofault"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/verify"
)

// DefaultMemBudget bounds the in-memory tier when Config.MemBudget is 0:
// 256 MiB of live plans and attached values.
const DefaultMemBudget = 256 << 20

// Source says where a cached plan came from.
type Source string

const (
	// SourceMemory means the plan was served from the in-memory LRU.
	SourceMemory Source = "memory"
	// SourceDisk means the plan was decoded from the on-disk store.
	SourceDisk Source = "disk"
	// SourceCompiled means the plan was compiled on this lookup.
	SourceCompiled Source = "compiled"
)

// Config configures a Cache.
type Config struct {
	// Dir is the on-disk store directory. Empty disables the disk tier.
	Dir string
	// MemBudget bounds the in-memory tier by the heap bytes its plans keep
	// live (plan.Artifact.Bytes) plus the sizes of the values attached to
	// them, in bytes (0: DefaultMemBudget; negative: no in-memory tier).
	MemBudget int64
	// Metrics receives the counters listed in the package comment (nil:
	// counters are discarded).
	Metrics *trace.Metrics
	// FS is the filesystem seam for the disk tier; nil means the real OS.
	// Fault-injection tests pass an iofault.FaultFS here.
	FS iofault.FS
}

// Cache is a two-tier plan cache. It is safe for concurrent use.
type Cache struct {
	dir     string
	budget  int64
	metrics *trace.Metrics
	fs      iofault.FS
	group   Group // single-flight over fills (disk load or compile)

	mu      sync.Mutex
	entries map[string]*list.Element // fingerprint -> lru element
	names   map[string]*attachment   // name -> the entry it was attached to
	lru     *list.List               // front = most recent
	bytes   int64
}

type entry struct {
	key   string
	art   *plan.Artifact
	size  int64    // the plan's live bytes plus the attached values
	names []string // what was attached to this artifact, oldest first
}

// attachment is one name of an entry and the value that hangs on it.
type attachment struct {
	el   *list.Element
	val  any
	size int64
}

// fillResult is what one fill flight produces, shared among coalesced
// lookups through the Group.
type fillResult struct {
	art *plan.Artifact
	src Source
}

// New creates a cache. If a directory is configured it is created on
// demand; a failure to create it surfaces on first disk write.
func New(cfg Config) *Cache {
	budget := cfg.MemBudget
	if budget == 0 {
		budget = DefaultMemBudget
	}
	fs := cfg.FS
	if fs == nil {
		fs = iofault.OS{}
	}
	return &Cache{
		dir:     cfg.Dir,
		budget:  budget,
		metrics: cfg.Metrics,
		fs:      fs,
		entries: make(map[string]*list.Element),
		names:   make(map[string]*attachment),
		lru:     list.New(),
	}
}

// GetOrCompile returns the artifact for the fingerprint key, trying the
// in-memory tier, then the disk tier, then the compile callback. Concurrent
// calls with the same key share one compilation. The compiled artifact is
// stored in both tiers before being returned.
//
// The returned Source reports which tier satisfied this call; callers that
// piggybacked on another caller's in-flight compilation observe
// SourceCompiled as well.
func (c *Cache) GetOrCompile(key string, compile func() (*plan.Artifact, error)) (*plan.Artifact, Source, error) {
	if err := validKey(key); err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		art := el.Value.(*entry).art
		c.mu.Unlock()
		c.metrics.Inc("plancache.hit.mem", 1)
		return art, SourceMemory, nil
	}
	c.mu.Unlock()

	v, _, err := c.group.DoNotify(key, func() (any, error) {
		art, src, err := c.fill(key, compile)
		if err != nil {
			return nil, err
		}
		return fillResult{art: art, src: src}, nil
	}, func() { c.metrics.Inc("plancache.shared", 1) })
	if err != nil {
		return nil, SourceCompiled, err
	}
	res := v.(fillResult)
	return res.art, res.src, nil
}

// fill resolves a miss of the in-memory tier: disk, then compilation.
func (c *Cache) fill(key string, compile func() (*plan.Artifact, error)) (*plan.Artifact, Source, error) {
	if art := c.loadDisk(key); art != nil {
		c.insertMem(key, art)
		c.metrics.Inc("plancache.hit.disk", 1)
		return art, SourceDisk, nil
	}
	c.metrics.Inc("plancache.miss", 1)
	art, err := compile()
	if err != nil {
		return nil, SourceCompiled, err
	}
	if err := c.store(key, art); err != nil {
		return nil, SourceCompiled, fmt.Errorf("plancache: encoding compiled plan: %w", err)
	}
	return art, SourceCompiled, nil
}

// store puts art in both tiers under key. Only the disk tier encodes it.
func (c *Cache) store(key string, art *plan.Artifact) error {
	if c.dir != "" {
		enc, err := plan.Encode(art)
		if err != nil {
			return err
		}
		if err := c.storeDisk(key, enc); err != nil {
			// A full or read-only disk must not fail the computation.
			c.metrics.Inc("plancache.diskerror", 1)
		}
	}
	c.insertMem(key, art)
	return nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the bytes charged to the in-memory tier: its plans' live
// bytes and the attached values.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the in-memory tier's budget in bytes, 0 when there is no
// in-memory tier.
func (c *Cache) Budget() int64 { return max(c.budget, 0) }

// insertMem puts art in the in-memory tier under key, charged the bytes it
// keeps live. Counting them derives its tables, which its first run would
// otherwise derive: a caller caches a plan to run it.
func (c *Cache) insertMem(key string, art *plan.Artifact) {
	if c.budget < 0 {
		return
	}
	size := art.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// The names were given to the artifact this one replaces.
		e := el.Value.(*entry)
		c.detach(e, len(e.names))
		c.bytes += size - e.size
		e.art, e.size = art, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&entry{key: key, art: art, size: size})
		c.bytes += size
	}
	c.shrink()
}

// Lookup returns the plan name was attached to and the value attached with
// it; ok is false when the name is unknown or its plan has been evicted.
func (c *Cache) Lookup(name string) (art *plan.Artifact, val any, ok bool) {
	c.mu.Lock()
	at := c.names[name]
	if at == nil {
		c.mu.Unlock()
		return nil, nil, false
	}
	c.lru.MoveToFront(at.el)
	art, val = at.el.Value.(*entry).art, at.val
	c.mu.Unlock()
	c.metrics.Inc("plancache.hit.mem", 1)
	return art, val, true
}

// Attach makes the in-memory entry of fingerprint key reachable by name as
// well and hangs val on it, charging size bytes to the entry. It does
// nothing when the entry is not held or the name is taken: the first
// attachment of a name stands until its plan goes. val is shared by every
// Lookup of the name, so it must not change once attached.
func (c *Cache) Attach(key, name string, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || c.names[name] != nil {
		return
	}
	e := el.Value.(*entry)
	c.names[name] = &attachment{el: el, val: val, size: size}
	e.names = append(e.names, name)
	e.size += size
	c.bytes += size
	c.lru.MoveToFront(el)
	c.shrink()
}

// shrink evicts from the back until within budget; the entry at the front
// — just inserted or attached to — survives even if it alone exceeds the
// budget (a cache that cannot hold the current working plan would only
// thrash), but then it sheds all names but its newest, oldest first: many
// names sharing one plan must not grow it without bound.
func (c *Cache) shrink() {
	for c.bytes > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.detach(e, len(e.names))
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.metrics.Inc("plancache.evict", 1)
	}
	e := c.lru.Front().Value.(*entry)
	for c.bytes > c.budget && len(e.names) > 1 {
		c.detach(e, 1)
		c.metrics.Inc("plancache.detach", 1)
	}
}

// detach drops e's n oldest names and what they carry.
func (c *Cache) detach(e *entry, n int) {
	for _, name := range e.names[:n] {
		size := c.names[name].size
		delete(c.names, name)
		e.size -= size
		c.bytes -= size
	}
	e.names = e.names[n:]
}

// loadDisk reads, decodes and statically verifies the disk entry for key.
// Corrupted entries are removed; entries that decode but fail verification
// (a poisoned plan: the bytes are intact, the semantics are not) are
// likewise evicted so the caller falls back to recompilation. Returns nil
// when the disk tier misses.
func (c *Cache) loadDisk(key string) *plan.Artifact {
	if c.dir == "" {
		return nil
	}
	path := c.path(key)
	enc, err := c.fs.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.metrics.Inc("plancache.corrupt", 1)
			c.fs.Remove(path)
		}
		return nil
	}
	// Decode checks structure only: semantic defects are the verifier's to
	// report (and count).
	art, err := plan.Decode(enc)
	if err != nil {
		c.metrics.Inc("plancache.corrupt", 1)
		c.fs.Remove(path)
		return nil
	}
	if art.Fingerprint != key {
		c.metrics.Inc("plancache.rejected", 1)
		c.fs.Remove(path)
		return nil
	}
	if res := verify.CheckArtifact(art); !res.OK() {
		c.metrics.Inc("plancache.rejected", 1)
		c.fs.Remove(path)
		return nil
	}
	return art
}

// storeDisk writes the encoded artifact atomically (temp file + rename) so
// a crash can never leave a half-written entry under the final name.
func (c *Cache) storeDisk(key string, enc []byte) error {
	if c.dir == "" {
		return nil
	}
	if err := c.fs.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := c.fs.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		c.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(tmp.Name())
		return err
	}
	return c.fs.Rename(tmp.Name(), c.path(key))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".rplan")
}

// validKey restricts keys to the hex fingerprints produced by
// plan.Fingerprint; anything else could escape the cache directory.
func validKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("plancache: invalid key %q", key)
	}
	for _, r := range key {
		if !strings.ContainsRune("0123456789abcdef", r) {
			return fmt.Errorf("plancache: invalid key %q (want lowercase hex)", key)
		}
	}
	return nil
}
