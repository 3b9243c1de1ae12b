// Corpus for the ledgerbalance analyzer. The types mirror the daemon's
// ledger vocabulary (book/release; reserve/commit/abort) so the
// analyzer's structural matching fires on them; each seeded violation
// sits next to its corrected form.
package a

import "errors"

type job struct{}

type wslot struct{}

type queue struct{}

func (q *queue) book(j *job) bool                                          { return true }
func (q *queue) release(j *job)                                            {}
func (q *queue) reserve(tenant string, prio int, force bool) (wslot, bool) { return wslot{}, true }
func (q *queue) commit(sl wslot)                                           {}
func (q *queue) abort(sl wslot)                                            {}

var errShed = errors.New("shed")

// leakOnJournalError: the happy path releases, but the journal-failure
// return path forgets, so every I/O fault bleeds booked units until the
// queue books nothing.
func leakOnJournalError(q *queue, j *job, journal func() error) error {
	if !q.book(j) { // want "not released on every path"
		return nil
	}
	if err := journal(); err != nil {
		return err
	}
	q.release(j)
	return nil
}

// leakOnPanic: an explicit panic is an exit path too; only a deferred
// release covers it.
func leakOnPanic(q *queue, j *job) {
	q.book(j) // want "not released on every path"
	panic("boom")
}

// leakBeforeDefer is the solve shape with its release deferred one step
// too late: a failure between the booking and the defer returns with the
// units still booked.
func leakBeforeDefer(q *queue, j *job, hook func() error) (waits bool, err error) {
	if !q.book(j) { // want "not released on every path"
		return true, nil
	}
	if err := hook(); err != nil {
		return false, err
	}
	defer q.release(j)
	return false, nil
}

// leakWhenBooked: the booking is held only in the then branch, which
// forgets it.
func leakWhenBooked(q *queue, j *job, run func()) {
	if q.book(j) { // want "not released on every path"
		run()
	}
}

// reserveWithoutAbort: the two-phase protocol leaks the slot when the
// journal append fails and nobody aborts.
func reserveWithoutAbort(q *queue, journal func() error) error {
	sl, ok := q.reserve("t", 1, false) // want "neither committed nor aborted"
	if !ok {
		return errShed
	}
	if err := journal(); err != nil {
		return err
	}
	q.commit(sl)
	return nil
}

// deferredRelease is the corrected solve shape: a failed book holds
// nothing, and the defer right after it covers every later exit,
// panics included.
func deferredRelease(q *queue, j *job, work func() error) (waits bool, err error) {
	if !q.book(j) {
		return true, nil
	}
	defer q.release(j)
	return false, work()
}

// explicitRelease releases on each exit by hand; both paths discharge.
func explicitRelease(q *queue, j *job, work func() error) error {
	ok := q.book(j)
	if !ok {
		return nil
	}
	if err := work(); err != nil {
		q.release(j)
		return err
	}
	q.release(j)
	return nil
}

// releaseWhenBooked releases inside the branch that holds the booking.
func releaseWhenBooked(q *queue, j *job, run func()) {
	if q.book(j) {
		defer q.release(j)
		run()
	}
}

// commitOrAbort is the corrected two-phase form: abort on journal
// failure, commit on success.
func commitOrAbort(q *queue, journal func() error) error {
	sl, ok := q.reserve("t", 2, false)
	if !ok {
		return errShed
	}
	if err := journal(); err != nil {
		q.abort(sl)
		return err
	}
	q.commit(sl)
	return nil
}

// forcedRequeue mirrors recovery's force-reserve: the discarded ok is
// fine because commit follows unconditionally.
func forcedRequeue(q *queue) {
	sl, _ := q.reserve("t", 1, true)
	q.commit(sl)
}
