package rapidd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/util"
)

// TestJournalChaosSoak is the failure-domain proof run: a closed-loop
// load drives a journaled daemon while its disk dies twice mid-run (EIO,
// then ENOSPC) and comes back. The daemon must never wedge — every
// request gets a definite answer, degraded windows refuse with 503 —
// the journal must round-trip to durable, and at the end
// the journal must agree exactly with the set of acknowledged-durable
// jobs: nothing lost, nothing duplicated, nothing phantom.
func TestJournalChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos soak; skipped in -short")
	}
	g0 := runtime.NumGoroutine()

	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	metrics := trace.NewMetrics()
	srv, err := Open(Config{
		JournalDir: dir,
		Workers:    4,
		QueueDepth: 64,
		Metrics:    metrics,
		hooks:      hooks{journalFS: ffs, rearmBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	// Record every acknowledgement that claimed durability; the journal
	// must answer for each of these at replay.
	var mu sync.Mutex
	acked := make(map[string]bool)
	var durable int64
	observe := func(job Job) {
		if job.Durable {
			mu.Lock()
			acked[job.ID] = true
			durable++
			mu.Unlock()
		}
	}
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}

	healthz := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Chaos controller: once enough acks are in flight, break the disk,
	// hold the outage until the daemon visibly degrades, heal, and wait
	// for the re-arm. Twice, with different errnos (EIO, then ENOSPC); each
	// re-arm compacts onto a fresh segment.
	stop := make(chan struct{})
	waitUntil := func(cond func() bool) bool {
		for !cond() {
			select {
			case <-stop:
				return false
			case <-time.After(2 * time.Millisecond):
			}
		}
		return true
	}
	chaosDone := make(chan struct{})
	windows := 0 // degraded windows /healthz showed; read after chaosDone
	go func() {
		defer close(chaosDone)
		for i, errno := range []syscall.Errno{syscall.EIO, syscall.ENOSPC} {
			threshold := 40 + 120*i
			if !waitUntil(func() bool { return ackedCount() >= threshold }) {
				return
			}
			ffs.Break(iofault.ClassDurability, errno)
			if !waitUntil(func() bool { return healthz() == http.StatusServiceUnavailable }) {
				return
			}
			windows++
			ffs.Heal()
			if !waitUntil(func() bool { return healthz() == http.StatusOK }) {
				return
			}
		}
	}()

	res := closedLoop(ts.URL, 8, 400, 7, func(rng *util.RNG) JobSpec {
		return JobSpec{N: 48, Procs: 2, Seed: uint64(zipfKey(rng, 4, 0) + 1)}
	}, observe)
	close(stop)
	<-chaosDone

	// The daemon never wedged: every request got an answer, none errored.
	if res.errors != 0 {
		t.Errorf("%d requests errored under chaos (daemon wedged or crashed?)", res.errors)
	}
	if res.done+res.failed+res.shed+res.refused+res.errors != res.issued {
		t.Errorf("outcomes do not partition issued: %+v", res)
	}
	if durable != res.done+res.failed {
		t.Errorf("served %d but durable-acked %d: a degraded daemon must never serve non-durably",
			res.done+res.failed, durable)
	}

	// The journal round-trips to durable (the run may have ended
	// mid-outage; heal and let the re-arm loop finish its job).
	ffs.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for healthz() != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("daemon stuck degraded after heal; journal degraded %v", srv.degraded())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.jnl.Stats()
	if windows == 0 {
		t.Error("chaos never degraded the daemon — the soak tested nothing")
	}
	if st.Rearms < int64(windows) {
		t.Errorf("%d degraded windows but %d re-arms: the daemon recovered without one", windows, st.Rearms)
	}
	if res.refused == 0 && metrics.Get("rapidd.jobs.refused_degraded") == 0 {
		t.Error("no request was refused while degraded")
	}
	t.Logf("chaos: %d degraded windows, %d re-arms, %d of %d requests refused",
		windows, st.Rearms, res.refused, res.issued)

	// Budget invariant: with the run over, no admission units or queue
	// slots may stay booked.
	for st := readMetrics(t, ts.URL); st["rapidd_mem_in_use_units"] != 0 || st["rapidd_admission_waiters"] != 0 || st["rapidd_queue_depth"] != 0; st = readMetrics(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("admission/queue ledgers never settled to zero")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// Replay the journal the chaos left behind. Open refuses a log with a
	// hole or a record it cannot read, so a successful replay is a whole
	// one. (Presence can't be asserted per job: every re-arm compacts,
	// legitimately dropping records of jobs that already gave their client
	// a terminal answer.) On top of that: every surviving submit must be a
	// job some client was acked durable (no phantoms), none may appear
	// twice (no double-execution on restart), and none may be live: a
	// completion the outage kept off the disk was held by the journal and
	// written into the re-arm's compaction root, so a restart re-executes
	// nothing.
	rep := replayJournal(t, dir)
	submits := make(map[string]int)
	terminal := make(map[string]bool)
	for _, rec := range rep.Records {
		switch rec.Op {
		case journal.OpSubmit:
			submits[rec.ID]++
		case journal.OpComplete:
			terminal[rec.ID] = true
		}
	}
	mu.Lock()
	defer mu.Unlock()
	live := 0
	for id, n := range submits {
		if !acked[id] {
			t.Errorf("phantom job %s in journal: never acknowledged durable", id)
		}
		if n > 1 {
			t.Errorf("job %s journaled %d times (would double-execute on restart)", id, n)
		}
		if !terminal[id] {
			live++
			t.Errorf("job %s is live at replay: a restart would execute it again", id)
		}
	}
	t.Logf("replay: %d submits survive compaction, %d live", len(submits), live)

	// Leak check: drain stopped the workers, the re-arm loop and every
	// waiting handler. Allow the runtime a moment to retire them.
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= g0+3 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
