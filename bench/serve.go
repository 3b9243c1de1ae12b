package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rapidd"
	"repro/internal/trace"
	"repro/internal/util"
)

// residualLimit bounds the ‖A−LLᵀ‖/‖A‖ a verify:true warm-up may report.
const residualLimit = 1e-8

// verifiedKeys is how many warm-up requests carry verify:true; the dense
// residual costs more than the solve, so the rest prove only the path.
const verifiedKeys = 8

// cacheMemBudget sizes the daemon's in-memory plan tier (encoded bytes): it
// holds a hot key set many times over and about a hundred n=400 plans, so
// on a stream of never-seen keys it evicts, and peak_rss_mb measures the
// footprint of a full cache instead of growing with the request count.
const cacheMemBudget = 32 << 20

// daemon is an in-process rapidd on a loopback listener.
type daemon struct {
	srv  *rapidd.Server
	http *http.Server
	url  string
	done chan error // Serve's return
}

func startDaemon(cfg rapidd.Config) (*daemon, error) {
	srv, err := rapidd.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing in flight: stops the workers
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener, waits for the serve loop and drains the
// workers (which closes the journal), so nothing outlives the call.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.done
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// picker draws keys with weight(k) ∝ (k+1)^-skew, as internal/loadgen does.
type picker struct{ cum []float64 }

func newPicker(keys int, skew float64) *picker {
	cum := make([]float64, keys)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -skew)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &picker{cum: cum}
}

func (p *picker) pick(rng *util.RNG) int {
	u := rng.Float64()
	for i, c := range p.cum {
		if u < c {
			return i
		}
	}
	return len(p.cum) - 1
}

// specGen is one client's request stream: a pure function of (workload,
// seed, client), so equal seeds replay byte-identical requests.
type specGen struct {
	w      workload
	seed   uint64
	client int
	keys   int
	rng    *util.RNG
	pk     *picker
	i      int // requests generated so far
}

// newSpecGen returns client's stream; salt separates the warm-up draws
// from the timed ones (the structures behind the keys stay the same).
func newSpecGen(w workload, cfg runConfig, client int, salt uint64) *specGen {
	g := &specGen{w: w, seed: cfg.seed, client: client, keys: cfg.scaled(w.keys),
		rng: util.NewRNG(util.Hash64(cfg.seed, salt, uint64(client)))}
	if w.zipf > 0 {
		g.pk = newPicker(g.keys, w.zipf)
	}
	return g
}

// Draw salts: the warm-up requests and the timed requests of one seed are
// different draws over the same keys.
const (
	warmSalt  = 1
	timedSalt = 2
)

// coldKeyBase keeps never-seen keys clear of every warm-up key.
const coldKeyBase = 1 << 20

// next returns the client's next spec, and false when a finite stream (one
// pass over the client's share of the keys) is exhausted.
func (g *specGen) next() (rapidd.JobSpec, bool) {
	var key int
	switch {
	case g.pk != nil: // skewed draws over a fixed key set
		key = g.pk.pick(g.rng)
	case g.keys == 0: // every request a never-seen structure
		key = coldKeyBase + g.client + serveClients*g.i
	default: // one pass; clients take disjoint keys so nothing coalesces
		key = g.client + serveClients*g.i
		if key >= g.keys {
			return rapidd.JobSpec{}, false
		}
	}
	g.i++
	return specFor(g.w.shape, g.seed, key, false), true
}

func specFor(s shape, seed uint64, key int, verify bool) rapidd.JobSpec {
	return rapidd.JobSpec{
		Kind: s.Kind, N: s.N, Seed: structureSeed(seed, uint64(key)),
		Procs: s.Procs, Block: s.Block, Heuristic: s.Heuristic,
		MemPercent: s.MemPercent, Verify: verify,
	}
}

// solve POSTs one spec and returns the job record, the HTTP status and
// the client-observed round trip.
func solve(hc *http.Client, url string, spec rapidd.JobSpec, tr *tracer, parent, op int) (rapidd.Job, int, time.Duration, error) {
	var job rapidd.Job
	body, err := json.Marshal(spec)
	if err != nil {
		return job, 0, 0, err
	}
	id := tr.begin("rapidd.solve_http", parent, op)
	t0 := time.Now()
	resp, err := hc.Post(url+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(id)
		return job, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	tr.end(id)
	resp.Body.Close()
	if err != nil {
		return job, resp.StatusCode, lat, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &job)
	}
	return job, resp.StatusCode, lat, err
}

// checkJob is the output check of one served request; wantSource "" accepts
// a plan from any tier.
func checkJob(w workload, job rapidd.Job, status int, err error, wantSource string) error {
	switch {
	case err != nil:
		return err
	case status != http.StatusOK:
		return fmt.Errorf("HTTP %d", status)
	case job.Status != rapidd.StatusDone:
		return fmt.Errorf("job %s status %q: %s", job.ID, job.Status, job.Error)
	case wantSource != "" && job.PlanSource != wantSource:
		return fmt.Errorf("job %s plan_source %q, want %q", job.ID, job.PlanSource, wantSource)
	case job.Durable != w.journal:
		return fmt.Errorf("job %s durable=%v, want %v", job.ID, job.Durable, w.journal)
	case job.Spec.Verify && !(job.Residual <= residualLimit):
		return fmt.Errorf("job %s residual %g exceeds %g", job.ID, job.Residual, residualLimit)
	}
	return nil
}

// serveRun holds one set-up of a serve workload.
type serveRun struct {
	w       workload
	cfg     runConfig
	dir     string // temp root: cache dir and journal dir live under it
	metrics *trace.Metrics
	d       *daemon // nil between serve_restart rounds
	hc      *http.Client
	ops     atomic.Int64 // operation ids for spans
	// gens are the clients' timed request streams; they persist across
	// timed phases so a never-seen key is never seen twice.
	gens []*specGen
	// scraped holds what only the daemon's /metrics exposes, as of the
	// last scrape (one is taken before every daemon stop).
	scraped struct{ queueWaitUS, journalRecords float64 }
}

// serviceCounters maps the traced run's service-side count metrics to the
// daemon's counter names; journal.records comes from /metrics instead.
var serviceCounters = map[string]string{
	"rapidd.coalesced":     "rapidd.jobs.coalesced",
	"rapidd.shed":          "rapidd.jobs.shed",
	"rapidd.verify_passed": "rapidd.verify.passed",
	"rapidd.verify_cached": "rapidd.verify.cached",
	"plancache.hit_mem":    "plancache.hit.mem",
	"plancache.hit_disk":   "plancache.hit.disk",
	"plancache.miss":       "plancache.miss",
}

// counts reads the service-side counters, by metric name.
func (r *serveRun) counts() map[string]float64 {
	if r.d != nil {
		r.scrape()
	}
	out := map[string]float64{"journal.records": r.scraped.journalRecords}
	for name, counter := range serviceCounters {
		out[name] = float64(r.metrics.Get(counter))
	}
	return out
}

func (r *serveRun) daemonConfig() rapidd.Config {
	cfg := rapidd.Config{Workers: serveWorkers, Metrics: r.metrics, CacheMemBudget: cacheMemBudget}
	if r.w.diskTier {
		cfg.CacheDir = filepath.Join(r.dir, "plans")
	}
	if r.w.journal {
		cfg.JournalDir = filepath.Join(r.dir, "journal")
	}
	return cfg
}

// setUp brings the workload to the state its timed phase assumes.
func setUpServe(w workload, cfg runConfig) (*serveRun, error) {
	dir, err := os.MkdirTemp("", "rapidbench-")
	if err != nil {
		return nil, err
	}
	r := &serveRun{w: w, cfg: cfg, dir: dir, metrics: trace.NewMetrics(),
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}}
	if err := r.warmUp(); err != nil {
		r.tearDown()
		return nil, err
	}
	return r, nil
}

func (r *serveRun) warmUp() error {
	var err error
	if r.d, err = startDaemon(r.daemonConfig()); err != nil {
		return err
	}
	// First sight of each key compiles it (and, with verify, proves the
	// factor). A workload without a key set warms up on throw-away keys.
	keys := r.cfg.scaled(r.w.keys)
	if keys == 0 {
		keys = r.cfg.scaled(r.w.warm)
	}
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for key := c; key < keys; key += serveClients {
				spec := specFor(r.w.shape, r.cfg.seed, key, key < verifiedKeys)
				job, status, _, err := solve(r.hc, r.d.url, spec, nil, -1, 0)
				// Any plan source will do here: at n=120 two structure
				// seeds can share a block structure, and so a plan.
				if err := checkJob(r.w, job, status, err, ""); err != nil {
					errs[c] = fmt.Errorf("warm-up key %d: %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if r.w.diskTier {
		// The timed rounds each open their own daemon over the warm dir.
		return r.stopDaemon()
	}
	if r.w.keys > 0 {
		p := r.clients(r.newGens(warmSalt), nil, time.Now().Add(time.Minute), r.cfg.scaled(r.w.warm)/serveClients)
		if p.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed: %s", p.failed, p.attempted, p.firstFailure)
		}
	}
	return nil
}

func (r *serveRun) stopDaemon() error {
	if r.d == nil {
		return nil
	}
	r.scrape()
	err := r.d.stop()
	r.d = nil
	return err
}

func (r *serveRun) scrape() {
	resp, err := r.hc.Get(r.d.url + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	samples, err := trace.ParsePromText(string(data))
	if err != nil {
		return
	}
	for _, s := range samples {
		switch {
		case s.Name == "rapidd_queue_wait_us" && s.Labels["quantile"] == "0.5":
			r.scraped.queueWaitUS = s.Value
		case s.Name == "rapidd_journal_records_total":
			r.scraped.journalRecords = s.Value
		}
	}
}

func (r *serveRun) tearDown() error {
	err := r.stopDaemon()
	r.hc.CloseIdleConnections()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

func (r *serveRun) newGens(salt uint64) []*specGen {
	gens := make([]*specGen, serveClients)
	for c := range gens {
		gens[c] = newSpecGen(r.w, r.cfg, c, salt)
	}
	return gens
}

// clients runs the closed loop: each client sends its next request when
// the previous reply arrives, until the deadline, its stream's end or
// limit requests (0: no limit).
func (r *serveRun) clients(gens []*specGen, tr *tracer, deadline time.Time, limit int) *phase {
	parts := make([]*phase, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &phase{}
			parts[c] = p
			gen := gens[c]
			for n := 0; (limit == 0 || n < limit) && time.Now().Before(deadline); n++ {
				spec, ok := gen.next()
				if !ok {
					return
				}
				op := int(r.ops.Add(1))
				root := tr.begin("request", -1, op)
				job, status, lat, err := solve(r.hc, r.d.url, spec, tr, root, op)
				err = checkJob(r.w, job, status, err, r.w.planSource)
				tr.end(root)
				p.attempted++
				if err != nil {
					p.fail(err) // a failed request contributes no latency sample
					continue
				}
				p.latencyMS = append(p.latencyMS, float64(lat.Nanoseconds())/1e6)
				p.doneAt = append(p.doneAt, time.Since(start))
				if job.Coalesced {
					continue // adopted another job's record: not a second Execute
				}
				p.peakUnits = append(p.peakUnits, float64(job.PeakUnits))
				p.execMS = append(p.execMS, job.ExecMS)
				p.inspectMS = append(p.inspectMS, job.InspectMS)
			}
		}(c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// timed runs the workload's timed phase for d.
func (r *serveRun) timed(d time.Duration, tr *tracer) (*phase, error) {
	deadline := time.Now().Add(d)
	if !r.w.diskTier {
		if r.gens == nil {
			r.gens = r.newGens(timedSalt)
		}
		return r.clients(r.gens, tr, deadline, 0), nil
	}
	// serve_restart: each round is a daemon restart over the warm plan
	// directory, then one request per key, so every plan is a disk load.
	// Only the request loops count toward elapsed.
	total := &phase{}
	for time.Now().Before(deadline) {
		var err error
		if r.d, err = startDaemon(r.daemonConfig()); err != nil {
			return nil, err
		}
		p := r.clients(r.newGens(timedSalt), tr, deadline, 0)
		for i := range p.doneAt {
			p.doneAt[i] += total.elapsed // rounds follow one another
		}
		total.merge(p)
		total.elapsed += p.elapsed
		if err := r.stopDaemon(); err != nil {
			return nil, err
		}
	}
	return total, nil
}
