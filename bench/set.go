package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// setFile is one point of the BENCH_<pr>.json trajectory: every workload
// run on a few seeds, each run in its own child process.
type setFile struct {
	PR         int                     `json:"pr"`
	Commit     string                  `json:"commit"` // HEAD when the set was run
	Go         string                  `json:"go"`
	NProc      int                     `json:"nproc"`
	Seed       uint64                  `json:"seed"` // first seed; run i uses seed+i
	Runs       int                     `json:"runs"`
	RunSeconds float64                 `json:"run_seconds"`
	Traced     bool                    `json:"traced"`
	Claim      *string                 `json:"claim"` // a benchmark change claims no gain
	Workloads  map[string]*setWorkload `json:"workloads"`
}

type setWorkload struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]*setMetric `json:"metrics"`
}

type setMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run, in seed order
	Median float64   `json:"median"`
	// Spread is the interquartile distance as a share of the median, the
	// contract's steadiness statistic (0 for a single run).
	Spread float64 `json:"spread"`
}

// benchPR numbers the trajectory file this benchmark first wrote.
const benchPR = 12

// runSet runs every workload runs times, one child process per run, and
// writes the set. It reports false when any run failed an output check.
func runSet(path string, seed uint64, runs int, seconds float64, traced bool) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := &setFile{
		PR: benchPR, Commit: headCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: seed, Runs: runs, RunSeconds: seconds, Traced: traced,
		Workloads: map[string]*setWorkload{},
	}
	ok := true
	for _, w := range workloads {
		sw := &setWorkload{Metrics: map[string]*setMetric{}}
		set.Workloads[w.name] = sw
		for i := 0; i < runs; i++ {
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				return false, fmt.Errorf("bench: %s run %d printed no result (%v): %w", w.name, i, runErr, err)
			}
			ok = ok && out.Correct
			sw.Attempted += out.Attempted
			sw.Failed += out.Failed
			for name, m := range out.Metrics {
				sm := sw.Metrics[name]
				if sm == nil {
					sm = &setMetric{Unit: m.Unit}
					sw.Metrics[name] = sm
				}
				sm.Values = append(sm.Values, m.Value)
			}
		}
		names := make([]string, 0, len(sw.Metrics))
		for name, sm := range sw.Metrics {
			sm.Median, sm.Spread = median(sm.Values), quartileSpread(sm.Values)
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sm := sw.Metrics[name]
			fmt.Printf("%s %s %v %s (spread %.1f%%)\n", w.name, name, sm.Median, sm.Unit, 100*sm.Spread)
		}
		fmt.Printf("%s failed %d of %d\n", w.name, sw.Failed, sw.Attempted)
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(path, append(data, '\n'), 0o644)
}

func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets prints one row per (workload, end-to-end metric): both
// medians, the ratio b/a, the bound and a verdict. A metric is worse when
// b's median is worse than a's by more than the bound; otherwise it is
// unresolved when either set's spread is wider than the bound (setup_s
// excepted, as in the acceptance rule), else ok. More failed operations
// per attempt is always worse. It reports whether any row is worse.
func compareSets(out io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	var spec benchmarkSpec
	var a, b setFile
	for path, v := range map[string]any{benchmarkPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Traced || b.Traced {
		return false, fmt.Errorf("bench: end-to-end numbers never come from a traced set")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	anyWorse := false
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("bench: workload %s missing from a set", w.Name)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if ma == nil || mb == nil {
				return false, fmt.Errorf("bench: %s %s missing from a set", w.Name, m.Name)
			}
			ratio := mb.Median / ma.Median
			verdict := "ok"
			switch {
			case m.Better == "lower" && ratio > 1+m.Bound, m.Better == "higher" && ratio < 1-m.Bound:
				verdict, anyWorse = "worse", true
			case m.Name != "setup_s" && (ma.Spread > m.Bound || mb.Spread > m.Bound):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*ma.Spread, 100*mb.Spread)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.0f%%\t%s\n",
				w.Name, m.Name, ma.Median, m.Unit, mb.Median, m.Unit, ratio, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if float64(wb.Failed)*float64(wa.Attempted) > float64(wa.Failed)*float64(wb.Attempted) {
			verdict, anyWorse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t%d/%d\t\t\t%s\n",
			w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdict)
	}
	return anyWorse, tw.Flush()
}
