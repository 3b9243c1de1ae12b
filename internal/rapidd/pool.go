package rapidd

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/journal"
)

// The serving layer: a bounded pool of worker goroutines executes admitted
// jobs in parallel. Requests enter through a bounded queue that drains
// weighted-fair across tenants (wfq.go) — a full backlog sheds the
// request with 429 + Retry-After, low priority first, instead of letting
// the backlog (and every queued client's latency) grow without bound.
// Every job a worker takes runs solve once: workers enforce per-job
// deadlines up to execution and drain gracefully on shutdown.
//
// Concurrency safety comes from the layers below: concurrent jobs share
// AVAIL_MEM (and their tenant's sub-quota) through the admission
// controller — each books its aggregate planned peak before executing —
// and the plan cache is single-flight per fingerprint and finds a repeated
// spec by name, so a burst of requests for one new structure compiles it
// once. That is the daemon's only deduplication: identical requests share
// the inspector's work, and each executes and reports its own run.

// job is the daemon's one per-job object: the record clients see plus
// what the serving layer needs to drive it. Server.jobs is the only
// id-keyed table (every unfinished job and the newest jobHistory finished
// ones), the queue holds *job, and transition is the only code
// that moves Status. A job is driven by one goroutine at a time — the
// submit handler (or recovery) until the queue hands it to a worker — and
// that goroutine alone changes the record, so it may read it unlocked;
// every other goroutine takes Server.mu for the record and for cancel.
type job struct {
	Job

	// vstart/vfinish are the WFQ virtual-clock stamps, set by the queue's
	// commit before it publishes the job (see wfq.go).
	vstart, vfinish float64
	// ctx carries the deadline and cancellation; only the driving
	// goroutine reads it. The terminal edge drops it together with cancel,
	// so a finished job holds its record and a closed channel, no more.
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed last on the terminal edge, after everything else the
	// edge owes.
	done chan struct{}
	// at is where the job's newest journal record ends: the position an
	// answer about the job syncs to (promise, syncJob). Guarded by
	// Server.mu, since an answer may read it while the job moves.
	at journal.Pos
}

// jobHistory is how many terminal jobs the daemon remembers. Unfinished
// jobs are always held; each job that finishes pushes the oldest finished
// one out of Server.jobs, so a long-lived daemon's job table stops growing.
// A forgotten id answers 404, as every terminal job does after a restart;
// whoever holds the *job — a ?wait=1 caller — still reads its record.
const jobHistory = 1024

// newJob is the one place a job comes into being: it derives the deadline
// context, allocates the record (pending) and does the tenant accounting.
// rec carries what the caller knows — identity and spec; Recovered, Durable
// and a zero submittedAt for a job replayed from the journal. queued is
// false only for a job recovered straight into a terminal state: it never
// enters the queue, so it does not count as submitted.
func (s *Server) newJob(rec Job, queued bool) *job {
	deadline := time.Duration(rec.Spec.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	// The deadline clock starts at submission: queue wait counts. A
	// recovered job's submission clock died with the old daemon, so its
	// deadline restarts here and bounds the recovered execution.
	start := rec.submittedAt
	if start.IsZero() {
		start = time.Now()
	}
	ctx, cancel := context.WithCancel(context.Background())
	if deadline > 0 {
		ctx, cancel = context.WithDeadline(context.Background(), start.Add(deadline))
	}
	rec.Status = StatusPending
	j := &job{Job: rec, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	s.jobs[rec.ID] = j
	ts := s.tenantStatLocked(rec.Spec.Tenant)
	if queued {
		ts.submitted++
	}
	if rec.Recovered {
		ts.recovered++
	}
	s.mu.Unlock()
	return j
}

// edges is the job lifecycle: the legal next states of each state. Queued
// appears only when admission has to wait; a job reaches done only by
// running.
var edges = map[JobStatus][]JobStatus{
	StatusPending: {StatusQueued, StatusRunning, StatusFailed},
	StatusQueued:  {StatusRunning, StatusFailed},
	StatusRunning: {StatusDone, StatusFailed},
}

// transition moves j along one lifecycle edge and does, here and nowhere
// else, everything the edge owes. → queued: the counter. → running: the
// admit record, written before running is visible — it marks the job
// in-flight, so replay after a crash fails it explicitly instead of
// re-running it (its budget was booked and its executor may have had side
// effects). → done/failed: the global and per-tenant counters — a failure
// whose cause is a deadline or a cancellation (errors.Is) counts as such
// too — the latency sample, the completion record (replay will not
// resurrect the job), the release of the context, and only then the close
// of done — so a waiter always finds the finished record. An edge not in
// the table is a bug in the caller; it is logged and returned, never
// applied.
// Records are written here and synced by the answer that reports them
// (promise, syncJob): a crash before that sync loses only what no client
// was told, so replay may re-queue a job whose admit no answer showed.
//
// Server.mu is never held across a journal write, a histogram
// observation or the channel close. The state read in the first critical
// section is still current in the second because only this goroutine
// drives j.
func (s *Server) transition(j *job, to JobStatus, cause error) error {
	s.mu.Lock()
	from, id, demand := j.Status, j.ID, j.DemandUnits
	s.mu.Unlock()
	if !slices.Contains(edges[from], to) {
		err := fmt.Errorf("rapidd: job %s: illegal transition %s → %s", id, from, to)
		log.Print(err)
		return err
	}
	var pos journal.Pos
	if to == StatusRunning {
		pos = s.journalWrite(journal.Record{Op: journal.OpAdmit, ID: id, Demand: demand})
	}
	terminal := to == StatusDone || to == StatusFailed
	errStr := ""
	if cause != nil {
		errStr = cause.Error()
	}
	expired := errors.Is(cause, context.DeadlineExceeded)

	s.mu.Lock()
	j.Status = to
	j.at = max(j.at, pos)
	if terminal {
		j.Error = errStr
		ts := s.tenantStatLocked(j.Spec.Tenant)
		if to == StatusDone {
			ts.completed++
		} else {
			ts.failed++
			if expired {
				ts.expired++
			}
		}
	}
	submittedAt := j.submittedAt
	s.mu.Unlock()

	switch to {
	case StatusQueued:
		s.metrics.Inc("rapidd.jobs.queued", 1)
	case StatusDone:
		s.metrics.Inc("rapidd.jobs.completed", 1)
	case StatusFailed:
		s.metrics.Inc("rapidd.jobs.failed", 1)
		if expired {
			s.metrics.Inc("rapidd.jobs.deadline_expired", 1)
		} else if errors.Is(cause, context.Canceled) {
			s.metrics.Inc("rapidd.jobs.cancelled", 1)
		}
	}
	if !terminal {
		return nil
	}
	if !submittedAt.IsZero() {
		s.latency.Observe(time.Since(submittedAt).Microseconds())
	}
	pos = s.journalWrite(journal.Record{Op: journal.OpComplete, ID: id, Status: string(to), Error: errStr})
	s.mu.Lock()
	j.at = max(j.at, pos)
	cancel := j.cancel
	j.ctx, j.cancel = nil, nil
	// j takes the history slot of the terminal job jobHistory before it,
	// which the daemon now forgets.
	slot := &s.history[s.finished%jobHistory]
	forgot := *slot != ""
	delete(s.jobs, *slot)
	*slot = id
	s.finished++
	s.mu.Unlock()
	if forgot {
		s.metrics.Inc("rapidd.jobs.forgotten", 1)
	}
	cancel()
	close(j.done)
	return nil
}

// update mutates the job's record under the lock.
func (s *Server) update(j *job, f func(*Job)) {
	s.mu.Lock()
	f(&j.Job)
	s.mu.Unlock()
}

// worker pulls jobs in weighted-fair order until the queue is closed by
// Drain and fully drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := s.queue.next(true); j != nil; j = s.queue.next(false) {
		s.process(j)
	}
}

// process drives one job to a terminal state: compile → admit → execute,
// once, bounded by the job's context up to the executor. A lost message is
// the engine's to retransmit (up to proto.MaxRetries times), so a job that
// fails here has failed for good.
func (s *Server) process(j *job) {
	ctx := j.ctx
	if !j.submittedAt.IsZero() {
		s.queueWait.Observe(time.Since(j.submittedAt).Microseconds())
	}
	if err := ctx.Err(); err != nil {
		s.transition(j, StatusFailed, fmt.Errorf("rapidd: job expired before execution: %w", err))
		return
	}
	if err := s.solve(ctx, j); err != nil {
		s.transition(j, StatusFailed, err)
		return
	}
	s.transition(j, StatusDone, nil)
}

// Cancel aborts the job if it is still pending or waiting for admission;
// a job already executing runs to completion (the executor owns its
// goroutines). Returns false for unknown and for finished jobs. The
// cancellation is journaled — and synced by the answer to the DELETE — so
// a crash between Cancel and the worker observing it does not resurrect
// the job at replay.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j := s.jobs[id]
	var cancel context.CancelFunc
	if j != nil {
		cancel = j.cancel
	}
	s.mu.Unlock()
	if cancel == nil {
		return false
	}
	s.journaled(j, s.journalWrite(journal.Record{Op: journal.OpCancel, ID: id}))
	cancel()
	return true
}

// Drain stops intake — new solve requests are refused with 503 — closes
// the queue, and waits for the workers to finish the backlog. Safe to
// call more than once. If ctx expires first, the workers keep draining in
// the background and the error reports the interruption. The journal is
// closed once the workers are done (every in-flight job has written its
// completion record), so a clean shutdown replays to an empty live set.
func (s *Server) Drain(ctx context.Context) error {
	// The re-arm loop stops with intake (it is wg-tracked, so the wait
	// below covers it); a drained daemon no longer promises durability.
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.close()
		close(s.stopRearm)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.jnl != nil {
			s.jnl.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rapidd: drain interrupted with jobs still in flight: %w", ctx.Err())
	}
}
