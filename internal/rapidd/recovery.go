package rapidd

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/journal"
)

// Journal recovery: a restarted daemon replays the write-ahead log and
// gives every job the previous daemon had acknowledged an explicit fate —
// nothing is silently dropped:
//
//   - submitted but never admitted (it was waiting in the queue or at
//     admission): re-queued and executed by this daemon, marked Recovered;
//   - admitted (it was executing when the daemon died): failed explicitly
//     with a restart error — its execution may have been mid-flight and
//     partial results are not trustworthy, but the client polling
//     GET /v1/jobs/{id} sees a definite terminal answer;
//   - cancelled before a worker observed the cancellation: failed
//     explicitly as cancelled;
//   - already terminal: skipped — the client got its answer from the
//     previous daemon (compaction eventually drops these records).
//
// The ID counter resumes past the journal's high-water mark, so job IDs
// never collide across restarts.

// replayedJob folds one job's journal records.
type replayedJob struct {
	seq       uint64
	id        string
	tenant    string
	priority  string
	spec      []byte
	admitted  bool
	cancelled bool
	terminal  bool
}

// recover rebuilds server state from a journal replay. Called from Open
// before the workers start, so recovered jobs enter the queue in their
// original submission order ahead of any new traffic.
func (s *Server) recover(rep *journal.Replay) {
	jobs := make(map[string]*replayedJob)
	var order []*replayedJob
	for _, rec := range rep.Records {
		switch rec.Op {
		case journal.OpSubmit:
			if _, dup := jobs[rec.ID]; dup {
				// Belt and braces: the journal's compaction-root handling
				// should make a duplicate submit impossible; if one slips
				// through anyway, requeueing the same ID twice would
				// double-execute the job and double-book its admission.
				s.metrics.Inc("rapidd.journal.duplicate_submits", 1)
				continue
			}
			rj := &replayedJob{
				seq: rec.Seq, id: rec.ID, tenant: rec.Tenant,
				priority: rec.Priority, spec: rec.Spec,
			}
			jobs[rec.ID] = rj
			order = append(order, rj)
		case journal.OpAdmit:
			if rj := jobs[rec.ID]; rj != nil {
				rj.admitted = true
			}
		case journal.OpCancel:
			if rj := jobs[rec.ID]; rj != nil {
				rj.cancelled = true
			}
		case journal.OpComplete:
			if rj := jobs[rec.ID]; rj != nil {
				rj.terminal = true
			}
		}
	}
	s.mu.Lock()
	s.seq = s.jnl.HighSeq()
	s.mu.Unlock()
	sort.Slice(order, func(i, k int) bool { return order[i].seq < order[k].seq })
	for _, rj := range order {
		if !rj.terminal {
			s.recoverJob(rj)
		}
	}
}

// recoverJob gives one unfinished journal job its fate: constructed like
// any other job, then either committed to the queue or taken straight
// along the terminal edge, which writes the completion record the
// previous daemon never did.
func (s *Server) recoverJob(rj *replayedJob) {
	spec, err := parseJobSpec(rj.spec, rj.tenant)
	fate := ""
	switch {
	case rj.admitted:
		fate = "rapidd: daemon restarted while the job was executing"
		s.metrics.Inc("rapidd.journal.failed_inflight", 1)
	case rj.cancelled:
		fate = "rapidd: cancelled before the restart"
		s.metrics.Inc("rapidd.journal.failed_cancelled", 1)
	case err != nil:
		fate = "rapidd: job cannot be re-queued"
	}
	if err != nil {
		// The spec was validated before it was journaled; an unreadable
		// one here means a decoding drift — keep the tenant for
		// accounting and fail the job with both causes visible.
		spec = JobSpec{Tenant: rj.tenant, Priority: rj.priority}
		fate = fmt.Sprintf("%s (spec unreadable at replay: %v)", fate, err)
	}
	rec := Job{ID: rj.id, Seq: rj.seq, Spec: spec, Recovered: true, Durable: true}
	if fate != "" {
		s.transition(s.newJob(rec, false), StatusFailed, errors.New(fate), nil)
		return
	}
	// The queue reservation is forced: the previous daemon already
	// accepted this job, so priority shedding does not apply to it again.
	prio, _ := parsePriority(spec.Priority)
	slot, _ := s.queue.reserve(spec.Tenant, prio, true)
	s.queue.commit(slot, s.newJob(rec, true))
	s.metrics.Inc("rapidd.journal.recovered", 1)
	s.metrics.Inc("rapidd.jobs.submitted", 1)
}
