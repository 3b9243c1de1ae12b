// Command rapidd is the solve service: a daemon that accepts sparse
// factorization jobs over HTTP, reuses compiled inspector artifacts through
// the two-tier plan cache (in-memory LRU over an on-disk content-addressed
// store), and executes them on a bounded worker pool under a machine-wide
// memory budget — concurrent jobs share -avail-mem, and jobs that would
// overflow it wait in the pool's queue, not on a worker, until running
// work releases space.
//
// Usage:
//
//	rapidd [-addr :8437] [-cache-dir DIR] [-cache-mem BYTES] [-avail-mem UNITS]
//	       [-job-timeout 30s]
//	       [-workers N] [-queue-depth N] [-deadline DUR] [-retry-after 1s]
//	       [-journal-dir DIR]
//	       [-tenant-quotas gold=48,bronze=16]
//	       [-default-tenant-quota UNITS] [-tenant-weights gold=3,bronze=1]
//
// Submit a job and wait for the result:
//
//	curl -s -X POST 'localhost:8437/v1/solve?wait=1' \
//	     -d '{"kind":"chol","n":300,"procs":4,"heuristic":"mpo","verify":true}'
//
// Re-submitting the same spec returns "plan_source": "memory" — the
// inspector phase is skipped. Every accepted job executes itself: a
// duplicate that arrives while the first is still executing shares its
// compiled plan, not its execution, and reports its own run.
// When the backlog exceeds -queue-depth the daemon sheds load with 429 +
// Retry-After instead of queueing without bound. GET /metrics serves the
// cache, pool, admission and journal numbers.
//
// On SIGINT/SIGTERM the daemon stops accepting jobs (503), finishes the
// backlog, and exits.
//
// With -journal-dir set every accepted job is journaled, and fsync'd before
// any answer reports it (a ?wait=1 job costs one fsync, shared with the
// answers sent beside it); on restart the daemon replays the journal, requeues
// jobs that never ran and explicitly fails the ones it was executing when it
// died. If the journal's disk fails mid-run the daemon degrades instead of
// wedging: new submits are refused with 503 while the journal is degraded.
// A background loop checks the journal every 50ms and re-arms it when
// degraded, doubling the delay while re-arms fail. GET /healthz is a
// readiness probe: 200 while durable, 503 + JSON
// {"state":"degraded","cause":…,"rearm_failures":N} while degraded.
//
// A request buys one solve. The job spec's eleven fields are tenant,
// priority, kind, n, seed, procs, block, heuristic, mem_percent, verify
// and deadline_ms; none holds booked memory past the run or injects
// faults, and unknown fields (hold_ms, drop_frac, dup_frac and fault_seed
// among them, which earlier daemons accepted) are ignored. A job runs
// once: message loss is absorbed by the protocol engine's retransmit, and
// a job it cannot save fails. Tenants (X-Tenant header or "tenant" spec
// field) get per-tenant -avail-mem sub-quotas, weighted-fair queueing and
// priority-aware shedding; GET /metrics exposes the counters in
// Prometheus text format, each tenant named in -tenant-quotas or
// -tenant-weights under its own label and every other tenant under
// "(other)".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/rapidd"
	"repro/internal/trace"
)

// parseTenantMap parses "name=value,name=value" flag syntax shared by
// -tenant-quotas and -tenant-weights. parse converts the value half.
func parseTenantMap[V any](arg string, parse func(string) (V, error)) (map[string]V, error) {
	if arg == "" {
		return nil, nil
	}
	out := make(map[string]V)
	for _, pair := range strings.Split(arg, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("%q: want name=value", pair)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %q listed twice", name)
		}
		v, err := parse(val)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	cacheDir := flag.String("cache-dir", "", "on-disk plan store directory (empty: memory-only cache)")
	cacheMem := flag.Int64("cache-mem", 0, "in-memory plan cache budget: bytes the cached plans and their problems keep live (0: default 256 MiB)")
	availMem := flag.Int64("avail-mem", 0, "machine-wide memory budget in abstract units (0: unlimited)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution watchdog deadline (0: executor default)")
	workers := flag.Int("workers", 0, "worker-pool size: concurrent job executions (0: max(2, GOMAXPROCS); 1: serial)")
	queueDepth := flag.Int("queue-depth", 0, "accepted-job backlog bound; beyond it requests are shed with 429 (0: 64, negative: unbuffered)")
	deadline := flag.Duration("deadline", 0, "default deadline for specs without deadline_ms: how long a job may wait in the queue, for a worker or for memory, before it executes; an executing job is bounded by -job-timeout instead (0: none)")
	retryAfter := flag.Duration("retry-after", 0, "client back-off hint on shed responses (0: 1s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	journalDir := flag.String("journal-dir", "", "write-ahead job journal directory (empty: no durability)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant avail-mem sub-quotas, e.g. gold=48,bronze=16")
	defaultTenantQuota := flag.Int64("default-tenant-quota", 0, "avail-mem sub-quota for tenants not in -tenant-quotas (0: uncapped)")
	tenantWeights := flag.String("tenant-weights", "", "fair-queueing weights, e.g. gold=3,bronze=1 (default 1 each)")
	flag.Parse()

	quotas, err := parseTenantMap(*tenantQuotas, func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && v <= 0 {
			err = fmt.Errorf("quota %d not positive", v)
		}
		return v, err
	})
	if err != nil {
		log.Fatalf("rapidd: -tenant-quotas: %v", err)
	}
	weights, err := parseTenantMap(*tenantWeights, func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (v <= 0 || v != v) {
			err = fmt.Errorf("weight %g not positive", v)
		}
		return v, err
	})
	if err != nil {
		log.Fatalf("rapidd: -tenant-weights: %v", err)
	}

	srv, err := rapidd.Open(rapidd.Config{
		CacheDir:           *cacheDir,
		CacheMemBudget:     *cacheMem,
		AvailMem:           *availMem,
		JobTimeout:         *jobTimeout,
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		DefaultDeadline:    *deadline,
		RetryAfter:         *retryAfter,
		JournalDir:         *journalDir,
		TenantQuotas:       quotas,
		DefaultTenantQuota: *defaultTenantQuota,
		TenantWeights:      weights,
		Metrics:            trace.NewMetrics(),
	})
	if err != nil {
		log.Fatalf("rapidd: %v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("rapidd listening on %s (cache-dir=%q avail-mem=%d workers=%d queue-depth=%d journal-dir=%q)",
		*addr, *cacheDir, *availMem, *workers, *queueDepth, *journalDir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("rapidd draining (up to %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("rapidd: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("rapidd: shutdown: %v", err)
	}
	log.Printf("rapidd stopped")
}
