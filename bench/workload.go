package main

import (
	"fmt"
	"time"
)

// workload is one set of inputs the benchmark runs. Serve workloads drive
// an in-process rapidd over loopback HTTP; factor workloads call the
// library directly. bench/README.md says why each exists.
type workload struct {
	name  string
	shape shape
	// kernelBound: the numeric kernels are expected to fill the EXE state
	// (the traced run proves it).
	kernelBound bool

	// Serve workloads only (planSource != "").
	planSource string  // the plan_source every timed response must report
	keys       int     // distinct structures (0: every request a new one)
	zipf       float64 // key skew over keys
	warm       int     // untimed warm-up requests after the per-key pass
	diskTier   bool    // plans live in a CacheDir that outlives the server
	journal    bool    // fsync'd write-ahead journal; acks must be durable
}

func (w workload) serves() bool { return w.planSource != "" }

// The service shapes are rapidd's defaults but for n; the factor shapes
// are the paper's regime (memory-constrained 2-D Cholesky) and its
// opposite (unconstrained, kernel-bound 1-D LU).
var (
	serveShape   = shape{Kind: "chol", N: 400, Procs: 4, Block: 8, Heuristic: "mpo"}
	durableShape = shape{Kind: "chol", N: 120, Procs: 4, Block: 8, Heuristic: "mpo"}
)

// The hot key set: mildly skewed draws over enough structures that the
// hottest takes a tenth of the traffic. With 8 keys at zipf 1.2 the
// hottest took 43% and latency_p50_ms followed that one structure: a 14%
// spread across seeds, none of it the system's.
const (
	hotKeys = 32
	hotSkew = 0.5
)

var workloads = []workload{
	{name: "serve_hot", shape: serveShape, planSource: "memory", keys: hotKeys, zipf: hotSkew, warm: 100},
	{name: "serve_cold", shape: serveShape, planSource: "compiled", warm: 20},
	{name: "serve_restart", shape: serveShape, planSource: "disk", keys: 120, diskTier: true},
	{name: "serve_durable", shape: durableShape, planSource: "memory", keys: hotKeys, zipf: hotSkew, warm: 100, journal: true},
	{name: "factor_chol", shape: shape{Kind: "chol", N: 1496, Procs: 4, Block: 12, Heuristic: "dtsmerge", MemPercent: 40}},
	{name: "factor_lu", shape: shape{Kind: "lu", N: 1496, Procs: 4, Block: 16, Heuristic: "mpo"}, kernelBound: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Closed loop: callers wait for the reply. Two clients over two keep-alive
// connections against two workers, one per core of the reference box.
const (
	serveClients = 2
	serveWorkers = 2
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64 // length of the timed phase
	traced  bool
	// setups is how many times set-up is repeated (setup_s is the median);
	// the timed phase runs against the last one.
	setups int
	// reps is the repetitions per span of the traced stage replay.
	reps int
	// keyScale shrinks key and warm-up counts; 1 outside the smoke test.
	keyScale float64
	// traceOut, when set, receives the traced run's spans as Chrome
	// trace-event JSON.
	traceOut string
}

func (c runConfig) scaled(n int) int {
	if n == 0 {
		return 0
	}
	if m := int(float64(n) * c.keyScale); m >= serveClients {
		return m
	}
	return serveClients
}

// phase is what one timed phase observed. Latency samples are the
// operations a user waits for (a request round trip; a fresh solve); exec
// samples are the numeric rapid.Execute calls alone.
type phase struct {
	attempted, failed int
	firstFailure      string
	latencyMS         []float64
	doneAt            []time.Duration // per latency sample: completion, since the phase began
	execMS            []float64
	inspectMS         []float64 // serve only: the job records' inspect_ms
	elapsed           time.Duration
	peakUnits         []float64 // per executed job: the largest per-processor peak
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstFailure == "" {
		p.firstFailure = err.Error()
	}
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstFailure == "" {
		p.firstFailure = q.firstFailure
	}
	p.latencyMS = append(p.latencyMS, q.latencyMS...)
	p.doneAt = append(p.doneAt, q.doneAt...)
	p.execMS = append(p.execMS, q.execMS...)
	p.inspectMS = append(p.inspectMS, q.inspectMS...)
	p.peakUnits = append(p.peakUnits, q.peakUnits...)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics of an untraced run. Every
// workload reports every one of them, with one meaning:
//
//	latency_*    the operation a user waits for: a POST /v1/solve?wait=1
//	             round trip (serve_*), or generate → build → Compile →
//	             numeric Execute on a never-seen matrix (factor_*)
//	exec_*       the numeric rapid.Execute call alone: the job record's
//	             exec_ms (serve_*), a re-execution of the compiled plan
//	             (factor_*)
//	peak_units   the paper's "space": per executed job, the largest
//	             per-processor memory high-water mark the executor reports
func endToEnd(p *phase, setupS []float64) (map[string]metric, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if len(p.latencyMS) == 0 || len(p.execMS) == 0 || p.elapsed <= 0 {
		return nil, fmt.Errorf("bench: timed phase produced no samples (first failure: %s)", p.firstFailure)
	}
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"latency_p50_ms":   {percentile(p.latencyMS, 0.5), "ms"},
		"latency_p90_ms":   {percentile(p.latencyMS, 0.9), "ms"},
		"throughput_ops_s": {float64(len(p.latencyMS)) / p.elapsed.Seconds(), "1/s"},
		"exec_p50_ms":      {percentile(p.execMS, 0.5), "ms"},
		"exec_p90_ms":      {percentile(p.execMS, 0.9), "ms"},
		"peak_units_p50":   {percentile(p.peakUnits, 0.5), "units"},
		"peak_rss_mb":      {rss, "MB"},
	}, nil
}
