// Command rapidvet statically enforces the runtime's concurrency and
// durability invariants; see ./checker for the suite and DESIGN.md §13 for
// the invariant table. Run it as `go run ./tools/analyzers/rapidvet ./...`.
package main

import "repro/tools/analyzers/rapidvet/checker"

func main() { checker.Main() }
