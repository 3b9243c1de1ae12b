package rapidd

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Health plane: the journal is the daemon's one health record. It poisons
// itself on the first I/O fault (see journal.ErrDegraded) — whichever
// write, fsync or compaction hit it — and stays degraded until a Rearm
// compacts onto a fresh segment. The daemon keeps no copy of that state:
// the submit gate, /healthz and /metrics read the journal, and one loop,
// started by Open and stopped by Drain, re-arms it. While the journal is
// degraded, new submits are refused with 503 + Retry-After — a client
// never gets an acknowledgement weaker than the durability it was
// promised — and /healthz answers 503 + JSON, so a router tier can steer
// traffic away before clients see failures.

// rearmBackoff is how often the re-arm loop checks the journal; the delay
// doubles per failed re-arm, and maxRearmBackoffFactor caps it at 32× this
// base.
const (
	rearmBackoff          = 50 * time.Millisecond
	maxRearmBackoffFactor = 32
)

// healthSnapshot is the JSON body /healthz serves while not ready.
type healthSnapshot struct {
	State         string `json:"state"`
	Cause         string `json:"cause,omitempty"`
	RearmFailures int64  `json:"rearm_failures"`
}

// degraded reports whether the journal refuses appends. A daemon without
// a journal promises no durability, so it has none to lose.
func (s *Server) degraded() bool {
	if s.jnl == nil {
		return false
	}
	d, _ := s.jnl.Degraded()
	return d
}

// healthSnap reads the journal's health for a 503 body. Called only with
// a journal.
func (s *Server) healthSnap() healthSnapshot {
	st := s.jnl.Stats()
	if !st.Degraded {
		return healthSnapshot{State: "durable", RearmFailures: st.RearmFailures}
	}
	return healthSnapshot{State: "degraded", Cause: st.DegradedCause, RearmFailures: st.RearmFailures}
}

// rearmLoop owns the way back to durable: every backoff it checks the
// journal and re-arms it if it is degraded. The backoff doubles, up to
// maxRearmBackoffFactor × the base, while Rearm fails and resets once the
// journal is durable. It runs from Open until Drain closes stopRearm.
func (s *Server) rearmLoop() {
	defer s.wg.Done()
	base := s.cfg.hooks.rearmBackoff
	backoff := base
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-s.stopRearm:
			return
		case <-timer.C:
		}
		backoff = nextRearmBackoff(backoff, base, !s.degraded() || s.jnl.Rearm() == nil)
		timer.Reset(backoff)
	}
}

// nextRearmBackoff is the re-arm loop's wait after a check that waited
// backoff: base once the journal is durable, else twice backoff, up to
// maxRearmBackoffFactor × base.
func nextRearmBackoff(backoff, base time.Duration, durable bool) time.Duration {
	if durable {
		return base
	}
	if backoff < base*maxRearmBackoffFactor {
		return 2 * backoff
	}
	return backoff
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

// handleHealthz serves readiness: 200 + "ok" while the journal is durable
// (or there is none), 503 + its health snapshot while it is degraded. A
// router tier can steer traffic away on the 503 and return it on the 200.
// The cheap flag is read first: a durable journal answers without the
// snapshot, and a snapshot taken after a re-arm won the race answers 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.degraded() {
		if snap := s.healthSnap(); snap.State == "degraded" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(snap)
			return
		}
	}
	w.Write([]byte("ok\n"))
}
