// Soak test: sustained mixed traffic — hot cached keys, absorbable message
// faults, unsurvivable fault storms, overload bursts and tight deadlines —
// against one server instance, then proof that nothing accumulated: no
// goroutine leak, no admission-budget leak, queue drained, and the verdict
// memo bounded by the number of distinct plans, not the number of requests.
//
// The package is rapidd_test (external) so it can drive the server through
// internal/loadgen, which imports rapidd.
package rapidd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/rapidd"
	"repro/internal/trace"
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

func TestSoakMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped under -short")
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Learn the standard job's footprint so AVAIL_MEM can be set to fit
	// roughly two concurrent jobs — admission queueing happens for real.
	probe := rapidd.New(rapidd.Config{})
	tsProbe := httptest.NewServer(probe)
	ref := solveSync(t, tsProbe, rapidd.JobSpec{Kind: "chol", N: 90, Seed: 1, Procs: 2})
	tsProbe.Close()
	if ref.Status != rapidd.StatusDone || ref.DemandUnits <= 0 {
		t.Fatalf("probe: %s demand=%d", ref.Status, ref.DemandUnits)
	}

	metrics := trace.NewMetrics()
	srv := rapidd.New(rapidd.Config{
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
	const maxKeys = 4
	base := loadgen.Config{URL: ts.URL, Keys: maxKeys, N: 90, Procs: 2, Kind: "chol"}
	batches := []struct {
		name string
		mut  func(c *loadgen.Config)
	}{
		{"hot-cached", func(c *loadgen.Config) { c.Clients = 3; c.Requests = 24; c.Skew = 1.5 }},
		{"faults-absorbed", func(c *loadgen.Config) {
			c.Clients = 3
			c.Requests = 12
			c.FaultFrac = 0.5
			c.DropFrac = 0.2
			c.DupFrac = 0.2
		}},
		{"fault-storm", func(c *loadgen.Config) {
			c.Clients = 2
			c.Requests = 4
			c.FaultFrac = 0.5
			c.DropFrac = 1 // unsurvivable: exercises retry + failure paths
		}},
		{"overload", func(c *loadgen.Config) {
			c.Clients = 8 // > workers + queue: some requests must shed
			c.Requests = 24
			c.HoldMS = 20
		}},
		{"deadline-pressure", func(c *loadgen.Config) {
			c.Clients = 4
			c.Requests = 12
			c.DeadlineMS = 30
			c.HoldMS = 20
		}},
	}

	start := time.Now()
	var issued, done, failed, shed int64
	for round := 0; time.Since(start) < *soakDur; round++ {
		b := batches[round%len(batches)]
		cfg := base
		cfg.Seed = uint64(round + 1)
		b.mut(&cfg)
		res, err := loadgen.Run(cfg, nil)
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, b.name, err)
		}
		if res.Errors != 0 {
			t.Fatalf("round %d (%s): %d transport/protocol errors", round, b.name, res.Errors)
		}
		if res.Done+res.Failed+res.Shed != res.Issued {
			t.Fatalf("round %d (%s): outcomes do not partition issued: %+v", round, b.name, res)
		}
		issued += res.Issued
		done += res.Done
		failed += res.Failed
		shed += res.Shed
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

// solveSync mirrors the internal test helper for the external package.
func solveSync(t *testing.T, ts *httptest.Server, spec rapidd.JobSpec) rapidd.Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job rapidd.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}
