// Package nondeterminism flags constructs that make plan bytes or
// protocol behavior depend on runtime accidents. Compiled plans are
// serialized by a byte-stable codec and addressed by a structural
// fingerprint (internal/plan), so any nondeterminism in the packages
// that build them — map iteration order, wall-clock reads, draws from
// the shared math/rand source — silently changes plan bytes between runs
// and defeats both the cache and the cross-backend equivalence suites.
// The protocol engine is additionally held to the event-driven liveness
// rules of PR 7: a blocked processor parks on a wake token or a
// registered timer (Backend.WakeAfter); it never spins through
// runtime.Gosched or sleeps a guessed duration.
//
// This is the original standalone tools/analyzers/nondeterminism linter,
// migrated into the rapidvet suite; the //det:ok marker it introduced is
// still honored (the checker enforces that every suppression carries a
// reason and is still live).
package nondeterminism

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/rapidvet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc: "flag map ranges, wall-clock reads, shared-source rand draws, Gosched spins and bare sleeps " +
		"in the plan-producing packages and the protocol engine (plan bytes must be a pure function of the input; " +
		"blocked processors must park on events)",
	DefaultPackages: []string{
		"internal/plan",
		"internal/sched",
		"internal/sched/exact",
		"internal/sched/bakeoff",
		"internal/mem",
		"internal/proto",
		// The verifier's findings are shown in job records and by
		// rapidverify: they must be a pure function of the plan too.
		"internal/verify",
	},
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.ReportRangef(n, "range over map: iteration order is nondeterministic and would leak into plan bytes (collect and sort, or mark //det:ok with a reason)")
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				switch pkgName.Imported().Path() {
				case "time":
					switch sel.Sel.Name {
					case "Now":
						pass.ReportRangef(n, "time.Now in a plan-producing package: wall-clock input makes plan bytes unstable")
					case "Sleep":
						pass.ReportRangef(n, "bare time.Sleep: a fixed delay in protocol code hides a missing event (wait on a wake token or register a timer via WakeAfter, or mark //det:ok with a reason)")
					}
				case "runtime":
					if sel.Sel.Name == "Gosched" {
						pass.ReportRangef(n, "runtime.Gosched: yield-and-respin is busy-polling; a blocked processor must park on an event, not spin (mark //det:ok only with a reason)")
					}
				case "math/rand", "math/rand/v2":
					// Package-level calls draw from the shared, implicitly
					// seeded source. Constructing an explicit seeded source
					// (rand.New, rand.NewSource, rand.NewPCG, ...) is fine,
					// and methods on such a *rand.Rand don't match here
					// (their receiver is not a package name).
					switch sel.Sel.Name {
					case "New", "NewSource", "NewPCG", "NewZipf", "NewChaCha8":
					default:
						pass.ReportRangef(n, "math/rand.%s uses the shared non-seeded source: draws are nondeterministic across runs (use rand.New(rand.NewSource(seed)))", sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
