// Command bench is the repository's benchmark: six workloads from a served
// solve to a memory-constrained factorization, each run in its own process,
// with output checks in the run and a separate stage-by-stage traced run.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result JSON
//	bench -set <out.json> [-runs k] [-trace 1] [-seed n] [-seconds s] every workload, k seeds each, one child process per run
//	bench -compare <a.json> <b.json>                                  two sets against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// stageReps is the repetitions per span of the traced stage replay.
const stageReps = 15

// setupRepeats is how often an untraced run sets up; setup_s is the median.
const setupRepeats = 5

// output is the result line of one run.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (one of BENCHMARK.json's)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traced   = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		traceOut = flag.String("trace-out", "", "traced run: write the spans here as Chrome trace-event JSON")
		set      = flag.String("set", "", "run every workload in child processes and write the set to this file")
		runs     = flag.Int("runs", 1, "-set: runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two set files (arguments) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("bench: -compare takes two set files"))
		}
		worse, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *set != "":
		ok, err := runSet(*set, *seed, *runs, *seconds, *traced == 1)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		if *seconds <= 0 || (*traced != 0 && *traced != 1) {
			fatal(fmt.Errorf("bench: want -seconds > 0 and -trace 0 or 1"))
		}
		out, err := runWorkload(w, runConfig{
			seed: *seed, seconds: *seconds, traced: *traced == 1,
			setups: setupRepeats, reps: stageReps, keyScale: 1, traceOut: *traceOut,
		})
		if err != nil {
			fatal(err)
		}
		printResult(w.name, out)
		if !out.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// printResult prints every metric as "workload metric value unit", then
// the result JSON as the last line.
func printResult(workload string, out *output) {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%s %s %v %s\n", workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// run is one set-up of a workload.
type run interface {
	// timed runs the workload's operations for d, with spans when tr is
	// not nil, checking every output.
	timed(d time.Duration, tr *tracer) (*phase, error)
	tearDown() error
}

func setUp(w workload, cfg runConfig) (run, error) {
	if w.serves() {
		return setUpServe(w, cfg)
	}
	return setUpFactor(w, cfg)
}

// runWorkload is one run: set-up, then either the untraced timed phase
// (end-to-end metrics) or the traced run (per-layer metrics).
func runWorkload(w workload, cfg runConfig) (out *output, err error) {
	setups := cfg.setups
	if cfg.traced {
		setups = 1 // setup_s is an end-to-end metric
	}
	var (
		r      run
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if r, err = setUp(w, cfg); err != nil {
			return nil, fmt.Errorf("bench: %s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if terr := r.tearDown(); err == nil {
			err = terr
		}
	}()
	runtime.GC() // the timed phase starts from set-up's live heap, not its garbage

	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		p, err := r.timed(d, nil)
		if err != nil {
			return nil, err
		}
		metrics, err := endToEnd(p, setupS)
		if err != nil {
			return nil, err
		}
		report(p)
		return &output{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}, nil
	}
	return tracedRun(w, cfg, r, d)
}

func report(p *phase) {
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %s\n", p.failed, p.attempted, p.firstFailure)
	}
}
