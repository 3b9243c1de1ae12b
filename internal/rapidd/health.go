package rapidd

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/journal"
)

// Health plane: the daemon's failure-domain state machine.
//
//	durable ──fault──▶ degraded ──attempt──▶ recovering ──ok──▶ durable
//	                      ▲                        │
//	                      └────────fail────────────┘
//
// The journal is the source of truth — it poisons itself on the first
// I/O fault (see journal.ErrDegraded) — and the health plane follows:
// noteJournalError observes the fault, flips the state and starts one
// re-arm loop that retries journal.Rearm with exponential backoff until
// the disk comes back. While degraded, new submits are refused with 503 +
// Retry-After: a client never gets an acknowledgement weaker than the
// durability it was promised. /healthz exposes the state with readiness
// semantics (200 durable / 503 + JSON otherwise) so a router tier can
// steer traffic away before clients see failures.

// HealthState enumerates the daemon's durability states.
type HealthState int

const (
	// HealthDurable: every acknowledged submit is fsync'd to the journal
	// (or durability is disabled entirely — no promise to break).
	HealthDurable HealthState = iota
	// HealthDegraded: an I/O fault poisoned the journal's active segment;
	// the re-arm loop is backing off before the next recovery attempt.
	HealthDegraded
	// HealthRecovering: a re-arm attempt is in flight.
	HealthRecovering
)

// String names the state for /healthz and logs.
func (h HealthState) String() string {
	switch h {
	case HealthDegraded:
		return "degraded"
	case HealthRecovering:
		return "recovering"
	}
	return "durable"
}

// maxRearmBackoffFactor caps the exponential backoff at 32× the base.
const maxRearmBackoffFactor = 32

// health is the state machine's mutable core; Server embeds one.
type health struct {
	mu       sync.Mutex
	state    HealthState // guarded-by: mu
	cause    string      // guarded-by: mu
	since    time.Time   // when the current state was entered; guarded-by: mu
	attempts int64       // re-arm attempts in the current window; guarded-by: mu
	rearming bool        // re-arm loop goroutine running; guarded-by: mu
	stopped  bool        // Drain called; no new loops; guarded-by: mu
	stop     chan struct{}
}

// healthSnapshot is the JSON body /healthz serves while not ready.
type healthSnapshot struct {
	State    string `json:"state"`
	Cause    string `json:"cause,omitempty"`
	SinceMS  int64  `json:"since_ms"` // time in the current state
	Attempts int64  `json:"rearm_attempts"`
}

// healthState returns the current state.
func (s *Server) healthState() HealthState {
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	return s.health.state
}

// healthSnap snapshots the state machine for /healthz.
func (s *Server) healthSnap() healthSnapshot {
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	return healthSnapshot{
		State:    s.health.state.String(),
		Cause:    s.health.cause,
		SinceMS:  time.Since(s.health.since).Milliseconds(),
		Attempts: s.health.attempts,
	}
}

// setHealthLocked transitions the state machine. Called with health.mu
// held.
func (s *Server) setHealthLocked(st HealthState, cause string) {
	if s.health.state != st {
		s.health.since = time.Now()
	}
	s.health.state = st
	s.health.cause = cause
}

// noteJournalError observes a journal Write or Sync failure. A
// degraded-journal error flips the state machine and starts the re-arm
// loop (once); any other error — and a record lost to a window already
// observed — is just counted by the caller.
func (s *Server) noteJournalError(err error) {
	if !errors.Is(err, journal.ErrDegraded) || errors.Is(err, journal.ErrLost) {
		return
	}
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	if s.health.state == HealthDurable {
		s.metrics.Inc("rapidd.health.degraded_windows", 1)
		s.health.attempts = 0
		s.setHealthLocked(HealthDegraded, err.Error())
	}
	if !s.health.rearming && !s.health.stopped {
		s.health.rearming = true
		s.wg.Add(1)
		go s.rearmLoop()
	}
}

// rearmLoop retries journal.Rearm with exponential backoff until the
// journal is durable again or the daemon drains. One loop runs per
// degraded window; it exits on success.
func (s *Server) rearmLoop() {
	defer s.wg.Done()
	backoff := s.cfg.RearmBackoff
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-s.health.stop:
			return
		case <-timer.C:
		}
		s.health.mu.Lock()
		s.health.attempts++
		s.setHealthLocked(HealthRecovering, s.health.cause)
		s.health.mu.Unlock()
		s.metrics.Inc("rapidd.health.rearm_attempts", 1)

		err := s.jnl.Rearm()

		s.health.mu.Lock()
		if err == nil {
			s.setHealthLocked(HealthDurable, "")
			s.health.rearming = false
			s.health.mu.Unlock()
			s.metrics.Inc("rapidd.health.rearms", 1)
			return
		}
		s.setHealthLocked(HealthDegraded, err.Error())
		s.health.mu.Unlock()
		if backoff < s.cfg.RearmBackoff*maxRearmBackoffFactor {
			backoff *= 2
		}
		timer.Reset(backoff)
	}
}

// stopHealth shuts the re-arm loop down for Drain. Safe to call once.
func (s *Server) stopHealth() {
	s.health.mu.Lock()
	if !s.health.stopped {
		s.health.stopped = true
		close(s.health.stop)
	}
	s.health.mu.Unlock()
}

// refuseDegraded 503s a submit while the journal cannot make it durable,
// with the same deterministic jittered Retry-After hint shedding uses —
// recovery is usually one successful fsync away.
func (s *Server) refuseDegraded(w http.ResponseWriter, prio int) {
	s.metrics.Inc("rapidd.jobs.refused_degraded", 1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(prio)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  "rapidd: journal degraded, not accepting jobs",
		"health": s.healthSnap(),
	})
}

// handleHealthz serves readiness: 200 + "ok" while durable, 503 + the
// state machine's JSON snapshot otherwise. A router tier can steer
// traffic away on the 503 and return it when the body says durable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.healthSnap()
	if st.State == HealthDurable.String() {
		w.Write([]byte("ok\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(st)
}
