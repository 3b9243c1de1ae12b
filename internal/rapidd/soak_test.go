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
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/util"
)

var soakDur = flag.Duration("soak", 10*time.Second, "minimum soak-test traffic duration (CI passes 60s)")

type soakStats struct {
	Counters     map[string]int64 `json:"counters"`
	MemInUse     int64            `json:"mem_in_use"`
	MemPeak      int64            `json:"mem_peak"`
	AvailMem     int64            `json:"avail_mem"`
	JobsQueued   int              `json:"jobs_queued"`
	QueueLen     int              `json:"queue_len"`
	CacheEntries int              `json:"cache_entries"`
	Draining     bool             `json:"draining"`
}

func readStats(t *testing.T, url string) soakStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st soakStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
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

	metrics := trace.NewMetrics()
	srv := New(Config{
		Workers:       3,
		QueueDepth:    2,
		AvailMem:      ref.DemandUnits * 5 / 2,
		MaxJobRetries: 1,
		RetryBackoff:  2 * time.Millisecond,
		JobTimeout:    5 * time.Second,
		Metrics:       metrics,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The distinct structures all batches draw from: at most maxKeys plan
	// fingerprints ever exist (replans under the budget add a handful).
	// A faulty request (drawn with probability faultFrac) carries the
	// batch's drop and dup fractions.
	const maxKeys = 4
	batches := []struct {
		name                 string
		clients, requests    int
		skew                 float64
		faultFrac, drop, dup float64
		deadlineMS, holdMS   int
	}{
		{name: "hot-cached", clients: 3, requests: 24, skew: 1.5},
		{name: "faults-absorbed", clients: 3, requests: 12, faultFrac: 0.5, drop: 0.2, dup: 0.2},
		// Unsurvivable: exercises retry + failure paths.
		{name: "fault-storm", clients: 2, requests: 4, faultFrac: 0.5, drop: 1},
		// More clients than workers + queue: some requests must shed.
		{name: "overload", clients: 8, requests: 24, holdMS: 20},
		{name: "deadline-pressure", clients: 4, requests: 12, deadlineMS: 30, holdMS: 20},
	}

	start := time.Now()
	var issued, done, failed, shed int64
	for round := 0; time.Since(start) < *soakDur; round++ {
		b := batches[round%len(batches)]
		res := closedLoop(ts.URL, b.clients, b.requests, uint64(round+1), func(rng *util.RNG) JobSpec {
			spec := JobSpec{Kind: "chol", N: 90, Procs: 2, Seed: uint64(zipfKey(rng, maxKeys, b.skew) + 1),
				DeadlineMS: b.deadlineMS, HoldMS: b.holdMS}
			if b.faultFrac > 0 && rng.Float64() < b.faultFrac {
				spec.DropFrac, spec.DupFrac, spec.FaultSeed = b.drop, b.dup, rng.Uint64()|1
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
	st := readStats(t, ts.URL)
	if st.MemInUse != 0 || st.JobsQueued != 0 || st.QueueLen != 0 {
		t.Fatalf("state left after drain: inUse=%d queued=%d queueLen=%d", st.MemInUse, st.JobsQueued, st.QueueLen)
	}
	if st.MemPeak > st.AvailMem {
		t.Fatalf("admitted peak %d exceeded AVAIL_MEM %d", st.MemPeak, st.AvailMem)
	}
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
	// The plan cache — and with it every retained verdict and protocol
	// table — is keyed by plan fingerprint: bounded by distinct structures
	// (plus budget replans), no matter how many requests ran.
	if st.CacheEntries == 0 || st.CacheEntries > 4*maxKeys {
		t.Fatalf("plan cache holds %d entries for %d issued requests over %d keys", st.CacheEntries, issued, maxKeys)
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
