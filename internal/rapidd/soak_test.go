// Soak test: sustained mixed traffic — hot cached keys, absorbable message
// faults, unsurvivable fault storms, overload bursts and tight deadlines —
// against one server instance, then proof that nothing accumulated: no
// goroutine leak, no admission-budget leak, queue drained, and the verdict
// memo bounded by the number of distinct plans, not the number of requests.
package rapidd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/util"
	"repro/rapid"
)

var soakDur = flag.Duration("soak", 10*time.Second, "minimum soak-test traffic duration (CI passes 60s)")

// readMetrics scrapes GET /metrics through the strict exposition parser
// and returns every sample's value by its key: the name, plus the labels
// when it has any (trace.PromSample.Key).
func readMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := trace.ParsePromText(string(body))
	if err != nil {
		t.Fatalf("/metrics rejected by the strict parser: %v", err)
	}
	byKey := make(map[string]float64, len(samples))
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	return byKey
}

// loadTally counts one closed-loop run's requests by outcome: done and
// failed are served (200) jobs, shed is 429, refused is 503, and errors
// is everything else, transport failures included.
type loadTally struct{ issued, done, failed, shed, refused, errors int64 }

// closedLoop is the soaks' client. clients goroutines split requests
// (earlier clients take the remainder) and each POSTs synchronous solves
// back to back, so the offered load follows the service rate. Client c
// draws from util.NewRNG(util.Hash64(seed, c)), so next builds the same
// specs on every run. observe, when set, sees every served job,
// concurrently from the client goroutines. A round trip times out after a
// minute, so a wedged daemon shows up as errors, not as a hung test.
func closedLoop(url string, clients, requests int, seed uint64, next func(*util.RNG) JobSpec, observe func(Job)) loadTally {
	hc := &http.Client{Timeout: time.Minute}
	var (
		mu    sync.Mutex
		total loadTally
		wg    sync.WaitGroup
	)
	count := func(outcome *int64) { mu.Lock(); *outcome++; mu.Unlock() }
	for c := 0; c < clients; c++ {
		n := requests / clients
		if c < requests%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			rng := util.NewRNG(util.Hash64(seed, uint64(c)))
			for i := 0; i < n; i++ {
				count(&total.issued)
				body, _ := json.Marshal(next(rng))
				resp, err := hc.Post(url+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					count(&total.errors)
					continue
				}
				var job Job
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					count(&total.shed)
				case resp.StatusCode == http.StatusServiceUnavailable:
					count(&total.refused)
				case resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&job) != nil:
					count(&total.errors)
				default:
					if job.Status == StatusDone {
						count(&total.done)
					} else {
						count(&total.failed)
					}
					if observe != nil {
						observe(job)
					}
				}
				resp.Body.Close()
			}
		}(c, n)
	}
	wg.Wait()
	return total
}

// zipfKey draws a key in [0, keys) with weight (k+1)^-skew from one
// rng.Float64: skew 0 is uniform, a larger skew concentrates traffic on
// low keys the way real workloads concentrate on hot structures.
func zipfKey(rng *util.RNG, keys int, skew float64) int {
	cum := make([]float64, keys)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -skew)
		cum[k] = total
	}
	u := rng.Float64()
	for k, c := range cum {
		if u < c/total {
			return k
		}
	}
	return keys - 1
}

func TestSoakMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped under -short")
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Learn the standard job's footprint so AVAIL_MEM can be set to fit
	// roughly two concurrent jobs — admission queueing happens for real.
	probe := New(Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, JobSpec{Kind: "chol", N: 90, Seed: 1, Procs: 2})
	tsProbe.Close()
	if ref.Status != StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	// The exec hook gives a job its fault mix or its hold by tenant: a
	// "lossy" job loses and duplicates a fifth of its transmissions, a
	// "storm" job loses every one (unsurvivable: the engine's retry budget
	// runs out and the job fails), and a "slow" job holds its worker and
	// its booked memory for 20 ms before it executes. Each execution draws
	// a fresh fault plan.
	var faultSeed atomic.Uint64
	perturb := func(spec JobSpec, opt *rapid.ExecOptions) {
		switch spec.Tenant {
		case "lossy":
			opt.Faults = rapid.Faults{Seed: faultSeed.Add(1), DropFrac: 0.2, DupFrac: 0.2}
		case "storm":
			opt.Faults = rapid.Faults{Seed: faultSeed.Add(1), DropFrac: 1}
		case "slow":
			time.Sleep(20 * time.Millisecond)
		}
	}
	metrics := trace.NewMetrics()
	srv := New(Config{
		Workers:    3,
		QueueDepth: 2,
		AvailMem:   ref.DemandUnits * 5 / 2,
		JobTimeout: 5 * time.Second,
		Metrics:    metrics,
		hooks:      hooks{exec: perturb},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The distinct structures all batches draw from: at most maxKeys plan
	// fingerprints ever exist (replans under the budget add a handful).
	// A request goes to the batch's tenant with probability frac.
	const maxKeys = 4
	batches := []struct {
		name              string
		clients, requests int
		skew              float64
		tenant            string
		frac              float64
		deadlineMS        int
	}{
		{name: "hot-cached", clients: 3, requests: 24, skew: 1.5},
		{name: "faults-absorbed", clients: 3, requests: 12, tenant: "lossy", frac: 0.5},
		{name: "fault-storm", clients: 2, requests: 4, tenant: "storm", frac: 0.5},
		// More clients than workers + queue: some requests must shed.
		{name: "overload", clients: 8, requests: 24, tenant: "slow", frac: 1},
		{name: "deadline-pressure", clients: 4, requests: 12, tenant: "slow", frac: 1, deadlineMS: 30},
	}

	start := time.Now()
	var issued, done, failed, shed int64
	for round := 0; time.Since(start) < *soakDur; round++ {
		b := batches[round%len(batches)]
		res := closedLoop(ts.URL, b.clients, b.requests, uint64(round+1), func(rng *util.RNG) JobSpec {
			spec := JobSpec{Kind: "chol", N: 90, Procs: 2, Seed: uint64(zipfKey(rng, maxKeys, b.skew) + 1),
				DeadlineMS: b.deadlineMS}
			if b.frac > 0 && rng.Float64() < b.frac {
				spec.Tenant = b.tenant
			}
			return spec
		}, nil)
		if res.errors != 0 {
			t.Fatalf("round %d (%s): %d transport/protocol errors", round, b.name, res.errors)
		}
		if res.done+res.failed+res.shed != res.issued {
			t.Fatalf("round %d (%s): outcomes do not partition issued: %+v", round, b.name, res)
		}
		issued += res.issued
		done += res.done
		failed += res.failed
		shed += res.shed
	}
	t.Logf("soak: %d issued, %d done, %d failed, %d shed over %v", issued, done, failed, shed, time.Since(start).Round(time.Second))
	if done == 0 {
		t.Fatal("soak completed no jobs")
	}

	// Drain and verify nothing is left behind.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := readMetrics(t, ts.URL)
	if inUse, queued, queueLen := st["rapidd_mem_in_use_units"], st["rapidd_admission_waiters"], st["rapidd_queue_depth"]; inUse != 0 || queued != 0 || queueLen != 0 {
		t.Fatalf("state left after drain: inUse=%v queued=%v queueLen=%v", inUse, queued, queueLen)
	}
	if peak, avail := st["rapidd_mem_peak_units"], st["rapidd_avail_mem_units"]; peak > avail {
		t.Fatalf("admitted peak %v exceeded AVAIL_MEM %v", peak, avail)
	}
	if st["rapidd_draining"] != 1 {
		t.Fatal("metrics do not report draining")
	}
	// The plan cache — and with it every retained verdict and protocol
	// table — is keyed by plan fingerprint: bounded by distinct structures
	// (plus budget replans), no matter how many requests ran.
	if entries := st["rapidd_cache_entries"]; entries == 0 || entries > 4*maxKeys {
		t.Fatalf("plan cache holds %v entries for %d issued requests over %d keys", entries, issued, maxKeys)
	}

	// Goroutine leak: the pool exits on drain; HTTP keep-alives and timer
	// goroutines wind down shortly after.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after:\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
