package serve

import (
	"vihot/internal/core"
	"vihot/internal/journal"
)

// Journal glue: when Config.Journal is set, the manager appends one
// record per estimate delivered, per health transition, per idle-TTL
// reap, and per explicit CloseSession. Appends happen on the same
// goroutines as the sinks they ride along with (worker goroutines for
// estimates/health/reaps; the caller or the worker for closes, see
// CloseSession) and never block: the journal's write-behind queue
// absorbs them, and an overflow sheds the record — counted here in
// JournalDropped, so the serving books extend to durability:
//
//	JournalAppended + JournalDropped ==
//	    Estimates + ToDegraded + ToCoasting + ToStale + Recoveries +
//	    SessionsReaped + SessionsClosed
//
// after a drain with journaling enabled for the whole run (the
// KindShutdown trailer is the journal's own and is outside the
// identity).

// journalAppend offers one record to the configured journal and
// settles the serve-side accounting.
func (m *Manager) journalAppend(rec journal.Record) {
	if m.cfg.Journal.Append(rec) {
		m.counters.journalAppended.Add(1)
	} else {
		m.counters.journalDropped.Add(1)
	}
}

// journalEstimate records one delivered estimate with the health it
// was emitted under. Called from emit, worker-goroutine-serial per
// session.
func (m *Manager) journalEstimate(s *session, est core.Estimate) {
	if m.cfg.Journal == nil {
		return
	}
	m.journalAppend(journal.Record{
		Kind:      journal.KindEstimate,
		Session:   s.id,
		T:         est.Time,
		Yaw:       est.Yaw,
		Position:  int32(est.Position),
		Source:    uint8(est.Source),
		MatchDist: est.MatchDist,
		Health:    uint8(s.h),
	})
}

// journalHealth records one degradation-state transition.
func (m *Manager) journalHealth(s *session, from, to Health) {
	if m.cfg.Journal == nil {
		return
	}
	m.journalAppend(journal.Record{
		Kind:    journal.KindHealth,
		Session: s.id,
		T:       s.now,
		From:    uint8(from),
		To:      uint8(to),
	})
}

// journalReap records one idle-TTL eviction at the sweep's shard
// stream time.
func (m *Manager) journalReap(id string, t float64) {
	if m.cfg.Journal == nil {
		return
	}
	m.journalAppend(journal.Record{Kind: journal.KindReap, Session: id, T: t})
}

// journalClose records one explicit CloseSession with the session's
// last clock and health. Caller holds the session's shard mutex, and
// the worker holds no chunk for the session, so its clock is settled.
func (m *Manager) journalClose(s *session) {
	if m.cfg.Journal == nil {
		return
	}
	m.journalAppend(journal.Record{
		Kind:    journal.KindClose,
		Session: s.id,
		T:       s.now,
		Health:  uint8(s.health.Load()),
	})
}
