package rapidd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestJobHistoryBounded: the daemon remembers the newest jobHistory
// finished jobs and no more, so its job table and its heap stop growing
// with the number of requests served. A forgotten id is 404 for GET and
// DELETE; the newest is still there; the caller that waited for a job gets
// its record whether or not the table still holds it.
func TestJobHistoryBounded(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := New(Config{Metrics: metrics})
	spec := JobSpec{N: 8, Procs: 1}
	heapAfter := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heap [3]uint64 // live heap after each thousand
	var last Job
	for k := range heap {
		for i := 0; i < jobHistory; i++ {
			last = mustDone(t, post(t, srv, spec))
		}
		heap[k] = heapAfter()
		srv.mu.Lock()
		held := len(srv.jobs)
		srv.mu.Unlock()
		if held > jobHistory {
			t.Fatalf("after %d jobs the daemon holds %d, want at most %d", (k+1)*jobHistory, held, jobHistory)
		}
	}
	if want := fmt.Sprintf("j%04d", 3*jobHistory); last.ID != want {
		t.Fatalf("last job is %s, want %s", last.ID, want)
	}
	if got := metrics.Get("rapidd.jobs.forgotten"); got != 2*jobHistory {
		t.Errorf("rapidd.jobs.forgotten = %d, want %d", got, 2*jobHistory)
	}
	// The leak this replaces was ~4 kB a job, 4 MB over these 1 024.
	if grew := int64(heap[2]) - int64(heap[1]); grew > 512<<10 {
		t.Errorf("live heap grew %d kB between job %d and job %d", grew>>10, 2*jobHistory, 3*jobHistory)
	}

	do := func(method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w
	}
	forgotten := fmt.Sprintf("/v1/jobs/j%04d", 2*jobHistory)
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		if w := do(method, forgotten); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", method, forgotten, w.Code)
		}
	}
	if srv.Cancel(fmt.Sprintf("j%04d", 2*jobHistory)) {
		t.Error("Cancel of a forgotten job reported true")
	}
	for _, id := range []string{fmt.Sprintf("j%04d", 2*jobHistory+1), last.ID} {
		w := do(http.MethodGet, "/v1/jobs/"+id)
		var j Job
		if err := json.Unmarshal(w.Body.Bytes(), &j); w.Code != http.StatusOK || err != nil || j.ID != id || j.Status != StatusDone {
			t.Errorf("GET %s: HTTP %d, %+v (%v)", id, w.Code, j, err)
		}
	}
	var list []Job
	if err := json.Unmarshal(do(http.MethodGet, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != jobHistory || list[0].Seq != 2*jobHistory+1 || list[len(list)-1].ID != last.ID {
		t.Errorf("GET /v1/jobs lists %d jobs from seq %d to %s, want the newest %d", len(list), list[0].Seq, list[len(list)-1].ID, jobHistory)
	}
}

// TestUnfinishedJobsAreNeverForgotten: only a finished job gives up its
// place. One held in its executor while jobHistory + 1 others finish is
// still there, still cancellable by id, and finishes as itself.
func TestUnfinishedJobsAreNeverForgotten(t *testing.T) {
	g := newGate(seeds(99))
	defer g.open()
	srv := New(Config{Workers: 2, hooks: hooks{exec: g.exec}})
	slow := submit(t, srv, JobSpec{N: 8, Procs: 1, Seed: 99}, "/v1/solve")
	g.wait(t)
	for i := 0; i <= jobHistory; i++ {
		mustDone(t, post(t, srv, JobSpec{N: 8, Procs: 1}))
	}
	srv.mu.Lock()
	j, held := srv.jobs[slow.ID], len(srv.jobs)
	srv.mu.Unlock()
	if j == nil || held != jobHistory+1 {
		t.Fatalf("running job held: %v; table holds %d, want the %d newest finished and the one running", j != nil, held, jobHistory)
	}
	g.open()
	<-j.done // orders the finished record before this read
	if j.ID != slow.ID || j.Status != StatusDone {
		t.Errorf("held job finished as %+v", j.Job)
	}
}
