// Command rapidverify runs the static plan verifier (internal/verify)
// without executing anything: it proves MAP-before-first-use liveness,
// cross-processor wait-for acyclicity (the Theorem 1 deadlock-freedom
// precondition) and the symbolic memory-budget replay on serialized plans
// or on freshly compiled example problems.
//
// Usage:
//
//	rapidverify plan.rplan ...            verify serialized plan files
//	rapidverify -expect-fail bad.rplan .. assert every file FAILS verification
//	rapidverify -builtin [-procs 4] [-n 120] [-block 8]
//	                                      compile the example problems
//	                                      (chol + lu x rcp/mpo/dts/dtsmerge
//	                                      x 100%/60% memory) and verify each
//
// Plan files are decoded with checksum and structure enforced and
// semantic validation left to the verifier, so deliberately defective
// corpora — e.g. internal/verify/testdata/badplans — can be checked with
// -expect-fail. Exit status: 0 when every input matches the expectation,
// 1 otherwise, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/factor"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/rapid"
)

func main() {
	expectFail := flag.Bool("expect-fail", false, "assert every input fails verification (for defect corpora)")
	builtin := flag.Bool("builtin", false, "compile and verify the built-in example problems instead of reading plan files")
	procs := flag.Int("procs", 4, "virtual processors for -builtin")
	n := flag.Int("n", 120, "approximate matrix order for -builtin")
	block := flag.Int("block", 8, "block / panel size for -builtin")
	seed := flag.Uint64("seed", 1, "matrix generator seed for -builtin")
	flag.Parse()

	switch {
	case *builtin:
		if flag.NArg() > 0 || *expectFail {
			fmt.Fprintln(os.Stderr, "rapidverify: -builtin takes no file arguments and no -expect-fail")
			os.Exit(2)
		}
		os.Exit(runBuiltin(*procs, *n, *block, *seed))
	case flag.NArg() == 0:
		fmt.Fprintln(os.Stderr, "rapidverify: no plan files given (or use -builtin)")
		os.Exit(2)
	default:
		os.Exit(runFiles(flag.Args(), *expectFail))
	}
}

// runFiles verifies each serialized plan, printing one verdict line per
// file and the findings table for failures.
func runFiles(files []string, expectFail bool) int {
	bad := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidverify: %v\n", err)
			bad++
			continue
		}
		a, err := plan.Decode(data)
		if err != nil {
			// Undecodable bytes cannot reach the verifier; under
			// -expect-fail that still counts as a detected-bad plan.
			if expectFail {
				fmt.Printf("%s: FAIL (decode: %v) — expected\n", file, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: %v\n", file, err)
				bad++
			}
			continue
		}
		res := verify.CheckArtifact(a)
		switch {
		case res.OK() && !expectFail:
			fmt.Printf("%s: OK (%d checks, peaks %v)\n", file, res.Checks, res.Peaks)
		case !res.OK() && expectFail:
			fmt.Printf("%s: FAIL (%d findings) — expected\n", file, len(res.Findings))
		case res.OK() && expectFail:
			fmt.Printf("%s: OK — but failure was expected\n", file)
			bad++
		default:
			fmt.Printf("%s: FAIL (%d findings, %d checks)\n", file, len(res.Findings), res.Checks)
			cols, rows := res.Rows()
			fmt.Print(trace.Grid(cols, rows))
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runBuiltin compiles the example problems across every heuristic at full
// and constrained memory and verifies each plan: the "all real plans pass"
// half of the verifier's acceptance criteria.
func runBuiltin(procs, n, block int, seed uint64) int {
	bad := 0
	for _, kind := range factor.Kinds {
		a, err := factor.Matrix(kind, n, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidverify: %v\n", err)
			return 2
		}
		pb, err := factor.Build(kind, a, procs, block)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidverify: %s build: %v\n", kind, err)
			return 1
		}
		for _, h := range []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge, rapid.TreeMem} {
			for _, memPct := range []int{100, 60} {
				label := fmt.Sprintf("%s/%v/mem=%d%%", kind, h, memPct)
				opt := rapid.Options{Procs: procs, Heuristic: h}
				var p *rapid.Plan
				if opt.Memory, _, err = rapid.MemoryPercent(pb.Program, opt, memPct); err == nil {
					p, err = rapid.Compile(pb.Program, opt)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: compile: %v\n", label, err)
					bad++
					continue
				}
				res := rapid.VerifyPlan(p)
				if res.OK() {
					exec := "executable"
					if !p.Executable() {
						exec = "non-executable"
					}
					fmt.Printf("%s: OK (%d checks, %s)\n", label, res.Checks, exec)
					continue
				}
				fmt.Printf("%s: FAIL (%d findings)\n", label, len(res.Findings))
				cols, rows := res.Rows()
				fmt.Print(trace.Grid(cols, rows))
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
