package plan

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/graph"
)

// fingerprintDomain separates plan fingerprints from any other SHA-256 use
// and versions the hashed layout: change it whenever the fields entering
// the hash change.
const fingerprintDomain = "rapid-plan-fingerprint-v1"

// Fingerprint returns the content address of a compilation input: a
// SHA-256 (hex) over the complete task-graph structure — objects with
// sizes and current owners, tasks with costs, access sets and
// commutativity, and every dependence edge in adjacency order — plus an
// opaque options blob supplied by the caller (processor count, heuristic,
// cost model, memory budget, owner policy...). Two inputs with equal
// fingerprints compile, deterministically, to byte-identical artifacts, so
// the fingerprint is a safe cache key for compiled plans.
//
// Owners are part of the structure on purpose: the same DAG under a
// different preset data mapping schedules differently. Callers that apply
// an owner policy during compilation must fingerprint before mutation and
// include the policy in opts (the policy is a deterministic function of the
// pre-mutation state).
//
// The encoding streams into the hash through the encoder's fixed window:
// the bytes hashed are the whole encoding, which is never built.
func Fingerprint(g *graph.DAG, opts []byte) string {
	h := sha256.New()
	e := newStreamEncoder(h)
	e.str(fingerprintDomain)
	encodeDAG(e, g)
	e.u64(uint64(len(opts)))
	e.raw(opts)
	e.flush()
	return hex.EncodeToString(h.Sum(nil))
}
