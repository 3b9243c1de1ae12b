package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/chol"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// TestStateTableFromExecution runs a small Cholesky factorization through
// the pipeline and checks the occupancy table the binary prints: a header
// with all five protocol states, one row per processor, and a totals row.
func TestStateTableFromExecution(t *testing.T) {
	rng := util.NewRNG(11)
	pat := sparse.Grid2D(6, 6, true)
	a := sparse.SPDValues(pat, rng)
	pr, err := chol.Build(a, chol.Options{Procs: 3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog := rapid.FromGraph(pr.G)
	plan, err := rapid.Compile(prog, rapid.Options{Procs: 3, Heuristic: rapid.MPO})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rapid.Execute(prog, plan, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject})
	if err != nil {
		t.Fatal(err)
	}

	out := stateTable(report)
	for _, h := range []string{"REC(s)", "EXE(s)", "SND(s)", "MAP(s)", "END(s)"} {
		if !strings.Contains(out, h) {
			t.Errorf("table missing header %q:\n%s", h, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := 1 + 3 + 1; len(lines) != want { // header + one row per proc + totals
		t.Errorf("table has %d lines, want %d:\n%s", len(lines), want, out)
	}
	for p := 0; p < 3; p++ {
		if !strings.HasPrefix(lines[1+p], "P"+string(rune('0'+p))) {
			t.Errorf("row %d does not start with P%d:\n%s", 1+p, p, out)
		}
	}
	if !strings.HasPrefix(lines[len(lines)-1], "all") {
		t.Errorf("missing totals row:\n%s", out)
	}
}

// TestReliabilityTableFromFaultyExecution runs the same small factorization
// under message loss and duplication and checks the reliability table the
// binary prints with -drop/-dup: retransmit activity is visible, every
// processor has a row, and the factorization still succeeds.
func TestReliabilityTableFromFaultyExecution(t *testing.T) {
	rng := util.NewRNG(13)
	pat := sparse.Grid2D(6, 6, true)
	a := sparse.SPDValues(pat, rng)
	pr, err := chol.Build(a, chol.Options{Procs: 3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog := rapid.FromGraph(pr.G)
	plan, err := rapid.Compile(prog, rapid.Options{Procs: 3, Heuristic: rapid.MPO})
	if err != nil {
		t.Fatal(err)
	}
	faults := rapid.Faults{Seed: 2, DropFrac: 0.25, DupFrac: 0.10}
	report, err := rapid.Execute(prog, plan, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}

	out := reliabilityTable(report)
	for _, h := range []string{"retrans", "dropped", "dups-sent", "dups-rcvd", "acked"} {
		if !strings.Contains(out, h) {
			t.Errorf("table missing header %q:\n%s", h, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := 1 + 3 + 1; len(lines) != want {
		t.Errorf("table has %d lines, want %d:\n%s", len(lines), want, out)
	}
	tot := rapid.SumReliability(report.Reliability)
	if tot.Retransmits == 0 || tot.Retransmits != tot.Dropped {
		t.Errorf("expected live retransmit counters (retransmits == drops > 0), got %+v", tot)
	}
}

// TestMainAsChild is not a test of its own: rapidsolveChild re-runs this
// test binary with `-test.run=TestMainAsChild -- <flags>`, and this function
// then hands those flags to main(), whose exit status and output the parent
// test inspects. An ordinary run has nothing after "--" and returns at once.
func TestMainAsChild(t *testing.T) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"rapidsolve"}, os.Args[i+1:]...)
			flag.CommandLine = flag.NewFlagSet("rapidsolve", flag.ExitOnError)
			main()
			os.Exit(0)
		}
	}
}

// rapidsolveChild runs the binary's main with the given flags and returns
// its exit status and combined output.
func rapidsolveChild(t *testing.T, flags ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainAsChild$", "--"}, flags...)...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestRejectsNonPositiveOrder: -n 0 used to divide by zero in the grid-shape
// formula; it is a usage error (status 2, one line on stderr).
func TestRejectsNonPositiveOrder(t *testing.T) {
	code, out := rapidsolveChild(t, "-n", "0")
	if code != 2 || !strings.Contains(out, "-n must be at least 1") || strings.Contains(out, "panic") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// TestPositivePercentNeverUnconstrained: 1% of a TOT of 16 truncates to a
// budget of 0, which rapid.Options reads as "no limit", so the run used to
// succeed unconstrained; a positive -mem compiles under a budget of at least
// 1, which this one-block problem cannot meet.
func TestPositivePercentNeverUnconstrained(t *testing.T) {
	code, out := rapidsolveChild(t, "-n", "1", "-mem", "1")
	if code != 1 || !strings.Contains(out, "budget=1 (1%)") || !strings.Contains(out, "NOT executable") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}
