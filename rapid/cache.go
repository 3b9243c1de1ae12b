package rapid

import (
	"encoding/binary"
	"math"

	"repro/internal/plan"
	"repro/internal/plancache"
)

// The inspector phase behind Compile — dependence transformation,
// clustering, ordering, MAP planning — depends only on the program
// structure and the compile options, and (by construction, see
// internal/plan) is deterministic. CompileCached exploits that: it content-
// addresses the (structure, options) pair with Fingerprint and reuses the
// compiled plan from a PlanCache, so repeated executions of the same
// irregular structure — across requests or across process restarts — skip
// the inspection entirely and pay only the executor.

// CacheSource reports which tier of a PlanCache satisfied a lookup.
type CacheSource = plancache.Source

// Lookup outcomes of CompileCached.
const (
	// FromMemory: the plan came from the in-memory LRU.
	FromMemory = plancache.SourceMemory
	// FromDisk: the plan was loaded from the on-disk store.
	FromDisk = plancache.SourceDisk
	// FromCompile: no cached plan existed; Compile ran.
	FromCompile = plancache.SourceCompiled
)

// PlanCacheConfig configures NewPlanCache: Dir is the on-disk store
// directory (empty: memory only), MemBudget bounds the in-memory tier by
// the heap bytes its plans keep live (Plan.Bytes) plus attached values, in
// bytes (0: a 256 MiB default; negative: no memory tier) and Metrics
// receives the plancache.* counters.
type PlanCacheConfig = plancache.Config

// PlanCache caches compiled plans by structural fingerprint. Safe for
// concurrent use; lookups for the same fingerprint are single-flight. Len
// returns the number of plans the in-memory tier holds, Bytes what they and
// their attached values are charged, Budget its bound. Attach gives a held
// plan a second, caller-chosen name and hangs a value on it, charged to the
// memory budget; Lookup finds the plan and the value by that name.
type PlanCache = plancache.Cache

// NewPlanCache creates a plan cache.
func NewPlanCache(cfg PlanCacheConfig) *PlanCache { return plancache.New(cfg) }

// Fingerprint returns the content address (a SHA-256 hex string) of the
// compilation input: the program's full task-graph structure plus the
// compile options. Equal fingerprints guarantee byte-identical compiled
// plans.
//
// Fingerprint the program as built, before any Compile call: Compile's
// owner policies assign object owners in place, so a program hashed after
// compilation keys differently from the same program hashed fresh (both
// keys are valid content addresses; they simply name different input
// states). A program fresh from its builder always produces the fresh key.
//
// Fingerprint hashes the whole graph encoding, so it costs time in
// proportion to the program; the encoding streams through a fixed 32 kB
// window and is never built whole. A caller that can tell which plan a
// request resolves to without building the program — rapidd can: a job
// spec names its matrix, and so its task graph — fingerprints a structure
// once and finds the plan afterwards by a name it attaches to the cache
// entry (PlanCache.Attach and Lookup), with no program in hand.
func Fingerprint(prog *Program, opt Options) string {
	return plan.Fingerprint(prog.G, encodeOptions(opt))
}

// encodeOptions canonicalizes Options into the fingerprint blob, resolving
// the same defaults Compile resolves so that semantically equal option
// structs hash equally.
func encodeOptions(opt Options) []byte {
	model := opt.Model
	if model == (CostModel{}) {
		model = T3D()
	}
	b := make([]byte, 0, 64)
	b = append(b, 1) // options layout version
	b = binary.AppendVarint(b, int64(opt.Procs))
	b = append(b, byte(opt.Heuristic))
	b = binary.AppendVarint(b, opt.Memory)
	b = append(b, byte(opt.Owners))
	for _, f := range []float64{
		model.ComputeRate, model.Latency, model.Bandwidth,
		model.MAPOverhead, model.MAPPerObject, model.AddrLatency,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// CompileCached is Compile through a plan cache: it fingerprints the
// (program, options) pair, reuses a cached plan when one exists (memory
// tier first, then disk), and otherwise compiles and stores the result.
// Concurrent calls for the same fingerprint compile once.
//
// A plan served from disk carries its own deserialized copy of the task
// graph. Task and object IDs are preserved exactly, so kernels and
// initializers keyed by ID (every builder in this module) execute
// identically against it; see rapid_test.go for the end-to-end identity
// check.
func CompileCached(prog *Program, opt Options, cache *PlanCache) (*Plan, CacheSource, error) {
	if cache == nil {
		p, err := Compile(prog, opt)
		return p, FromCompile, err
	}
	fp := Fingerprint(prog, opt)
	return cache.GetOrCompile(fp, func() (*Plan, error) {
		p, err := Compile(prog, opt)
		if err != nil {
			return nil, err
		}
		p.Fingerprint = fp
		return p, nil
	})
}

// MarshalPlan serializes a compiled plan (including the task graph its
// schedule refers to) into the versioned binary format of internal/plan.
// The encoding is deterministic: equal plans marshal to equal bytes.
func MarshalPlan(p *Plan) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return plan.Encode(p)
}

// UnmarshalPlan parses a plan serialized by MarshalPlan, verifying its
// checksum and structural invariants.
func UnmarshalPlan(data []byte) (*Plan, error) {
	p, err := plan.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ProgramOf returns a Program view of the task graph embedded in a plan
// (e.g. one loaded by UnmarshalPlan), for passing to Execute or Simulate.
func ProgramOf(p *Plan) *Program {
	return &Program{G: p.Schedule.G}
}
