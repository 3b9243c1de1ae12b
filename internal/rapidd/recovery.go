package rapidd

import (
	"errors"
	"fmt"

	"repro/internal/journal"
)

// Journal recovery: a restarted daemon gives every job the previous
// daemon had acknowledged and never finished an explicit fate — nothing
// is silently dropped. The jobs are the journal's live set
// (journal.Replay.Live), the same fold compaction writes out, so a job's
// fate does not depend on whether a compaction ran:
//
//   - submitted but never admitted (it was waiting in the queue, for a
//     worker or for memory): re-queued and executed by this daemon,
//     marked Recovered;
//   - admitted (it was executing when the daemon died): failed explicitly
//     with a restart error — its execution may have been mid-flight and
//     partial results are not trustworthy, but the client polling
//     GET /v1/jobs/{id} sees a definite terminal answer;
//   - cancelled before a worker observed the cancellation: failed
//     explicitly as cancelled.
//
// A job with a completion record is not live: the client got its answer
// from the previous daemon. The ID counter resumes past the journal's
// high-water mark, so job IDs never collide across restarts.

// recover gives one unfinished journal job its fate: constructed like
// any other job, then either committed to the queue or taken straight
// along the terminal edge, which writes the completion record the
// previous daemon never did. Open calls it for each job of
// journal.Replay.Live before the workers start.
func (s *Server) recover(lj journal.LiveJob) {
	sub := lj.Submit
	spec, err := parseJobSpec(sub.Spec, sub.Tenant)
	fate := ""
	switch {
	case lj.Admitted:
		fate = "rapidd: daemon restarted while the job was executing"
		s.metrics.Inc("rapidd.journal.failed_inflight", 1)
	case lj.Cancelled:
		fate = "rapidd: cancelled before the restart"
		s.metrics.Inc("rapidd.journal.failed_cancelled", 1)
	case err != nil:
		fate = "rapidd: job cannot be re-queued"
	}
	if err != nil {
		// The spec was validated before it was journaled; an unreadable
		// one here means a decoding drift — keep the tenant for
		// accounting and fail the job with both causes visible.
		spec = JobSpec{Tenant: sub.Tenant, Priority: sub.Priority}
		fate = fmt.Sprintf("%s (spec unreadable at replay: %v)", fate, err)
	}
	rec := Job{ID: sub.ID, Seq: sub.Seq, Spec: spec, Recovered: true, Durable: true}
	if fate != "" {
		s.transition(s.newJob(rec, false), StatusFailed, errors.New(fate))
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
