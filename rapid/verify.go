package rapid

import "repro/internal/verify"

// VerifyResult is the static verifier's report for one plan: the findings
// (empty for a clean plan), the symbolically replayed per-processor peaks
// and the count of invariants checked. See internal/verify and DESIGN.md §8
// for the paper-claim-by-claim correspondence.
type VerifyResult = verify.Result

// VerifyFinding is one verifier diagnostic.
type VerifyFinding = verify.Finding

// VerifyPlan statically verifies a compiled plan without executing it:
// MAP-before-first-use liveness per processor (use-after-free, double-free
// and leak detection), cross-processor wait-for acyclicity (the Theorem 1
// deadlock-freedom precondition, with the full blocking chain on failure),
// symbolic allocator replay against the declared peaks and AVAIL_MEM, and
// arrival-threshold / address-package cross-checks. A clean result is
// recorded on the plan, so the plan boundaries that gate on verification
// (disk-cache load, daemon admission) check a given plan once.
func VerifyPlan(p *Plan) *VerifyResult {
	return verify.CheckArtifact(p)
}
