package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// tracedRun yields the per-layer metrics of one workload: the
// stage-by-stage replay, then the workload's own timed phase twice — a
// quarter of the run without spans and a quarter with — whose difference
// is the tracing overhead. It also proves the workload ran the path it
// names; a failed proof counts as a failed operation.
func tracedRun(w workload, cfg runConfig, r run, d time.Duration) (*output, error) {
	tr := newTracer()
	metrics, stageS, err := replayStages(w, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("bench: %s stage replay: %w", w.name, err)
	}

	sr, _ := r.(*serveRun)
	var before map[string]float64
	if sr != nil {
		before = sr.counts()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := r.timed(d/4, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	traced, err := r.timed(d/4, tr)
	if err != nil {
		return nil, err
	}
	if len(plain.latencyMS) == 0 || len(traced.latencyMS) == 0 {
		return nil, fmt.Errorf("bench: traced run's timed phases produced no samples (first failure: %s%s)", plain.firstFailure, traced.firstFailure)
	}
	spans := tr.snapshot()
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}

	both := &phase{}
	both.merge(plain)
	both.merge(traced)
	report(both)
	out := &output{Attempted: both.attempted, Failed: both.failed, Metrics: metrics}
	prove := func(ok bool, format string, args ...any) {
		out.Attempted++
		if !ok {
			out.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s does not run the path it names: %s\n", w.name, fmt.Sprintf(format, args...))
		}
	}

	// Run-quality diagnostics.
	p50 := percentile(plain.latencyMS, 0.5)
	metrics["bench.trace_overhead_pct"] = metric{100 * (percentile(traced.latencyMS, 0.5) - p50) / p50, "%"}
	metrics["bench.segment_spread_pct"] = metric{segmentSpreadPct(plain.inOrder()), "%"}
	metrics["bench.alloc_mb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(plain.attempted), "MB"}
	self := selfTimes(spans)
	var rootSelf []float64
	for _, s := range spans {
		if s.Parent < 0 && s.Name != "replay" {
			rootSelf = append(rootSelf, float64(self[s.ID].Nanoseconds())/1e6)
		}
	}
	metrics["bench.harness_self_ms"] = metric{median(rootSelf), "ms"}

	// What the service adds around the replayed stages (for a library
	// workload: what the benchmark's own solve adds, which should be ~0).
	stageSum := 0.0
	for _, name := range servedStages[w.planSource] {
		stageSum += stageS[name]
	}
	if w.journal {
		stageSum += journalRecordsPerJob * stageS["journal.append_sync"]
	}
	metrics["rapidd.overhead_ms"] = metric{p50 - stageSum*1e3, "ms"}
	metrics["rapidd.latency_p99_ms"] = metric{percentile(both.latencyMS, 0.99), "ms"}

	// Service-side numbers; zero on the library workloads, which have no
	// service in the path.
	delta := map[string]float64{"journal.records": 0}
	for name := range serviceCounters {
		delta[name] = 0
	}
	var inspect, exec, queueWait float64
	if sr != nil {
		for name, v := range sr.counts() {
			delta[name] = v - before[name]
		}
		inspect, exec = percentile(both.inspectMS, 0.5), percentile(both.execMS, 0.5)
		queueWait = sr.scraped.queueWaitUS
	}
	for name, v := range delta {
		metrics[name] = metric{v, "count"}
	}
	metrics["rapidd.inspect_ms_p50"] = metric{inspect, "ms"}
	metrics["rapidd.exec_ms_p50"] = metric{exec, "ms"}
	metrics["rapidd.queue_wait_us_p50"] = metric{queueWait, "us"}

	// Path proofs.
	if sr != nil {
		hitMem, hitDisk, miss := delta["plancache.hit_mem"], delta["plancache.hit_disk"], delta["plancache.miss"]
		lookups := hitMem + hitDisk + miss
		executed := float64(len(both.execMS))
		switch w.planSource {
		case "memory":
			prove(hitMem >= 0.99*lookups, "plancache.hit_mem %v of %v lookups", hitMem, lookups)
		case "compiled":
			prove(miss == lookups, "plancache.miss %v of %v lookups", miss, lookups)
		case "disk":
			prove(hitDisk == lookups, "plancache.hit_disk %v of %v lookups", hitDisk, lookups)
		}
		prove(lookups >= executed, "%v cache lookups for %v executed jobs", lookups, executed)
		if w.journal {
			prove(delta["journal.records"] >= journalRecordsPerJob*executed,
				"journal.records %v for %v executed jobs", delta["journal.records"], executed)
		}
	}
	if w.shape.MemPercent > 0 {
		maps, susp := metrics["proto.maps_total"].Value, metrics["proto.suspended_sends"].Value
		prove(maps > float64(w.shape.Procs) && susp > 0,
			"memory-constrained run with %v MAPs on %d processors and %v suspended sends", maps, w.shape.Procs, susp)
	}
	if w.kernelBound {
		share := metrics["blas.kernel_share_pct"].Value
		prove(share >= 90, "kernels fill %v%% of EXE occupancy, want at least 90%%", share)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// inOrder returns the latency samples in completion order.
func (p *phase) inOrder() []float64 {
	idx := make([]int, len(p.latencyMS))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.doneAt[idx[a]] < p.doneAt[idx[b]] })
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = p.latencyMS[j]
	}
	return out
}
