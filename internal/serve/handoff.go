package serve

import (
	"fmt"
	"sort"

	"vihot/internal/core"
	"vihot/internal/journal"
)

// Session handoff seams: export a session's transferable state as a
// journal KindExport record, and rebuild a session from one on another
// manager. These are the serve-side halves of the cluster tier's
// drain/failover protocol (internal/cluster), but they stand alone —
// a snapshot→restore round-trip on a single process preserves the
// session clock, health, and last estimate with no cluster in the
// loop.
//
// Quiescence contract: ExportSession and ExportSessions read
// worker-owned session fields (clock, health, last estimate), so they
// must run on a quiesced manager — after Flush has returned with no
// concurrent pushers. The shard mutex then orders the worker's final
// writes before the export's reads, which keeps the reads sound under
// the race detector without adding any synchronization to the hot
// path.

// ExportSession snapshots one session's transferable state: the
// session clock, degradation health, and last delivered estimate,
// flagged for whichever of those the session actually has. The From,
// To, and ExportFailover fields are left for the transfer coordinator
// to fill — serve knows nothing about node identity.
func (m *Manager) ExportSession(id string) (journal.Record, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.sessions[id]
	if s == nil {
		return journal.Record{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return exportRecord(s), nil
}

// ExportSessions snapshots every open session, sorted by session ID so
// a drain transfers (and journals) its sessions in one deterministic
// order regardless of shard map iteration. Same quiescence contract as
// ExportSession.
func (m *Manager) ExportSessions() []journal.Record {
	var recs []journal.Record
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			recs = append(recs, exportRecord(s))
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Session < recs[j].Session })
	return recs
}

// exportRecord builds the snapshot. Caller holds the session's shard
// mutex.
func exportRecord(s *session) journal.Record {
	rec := journal.Record{
		Kind:    journal.KindExport,
		Session: s.id,
		Health:  uint8(s.h),
	}
	if s.haveNow {
		rec.T = s.now
		rec.Flags |= journal.ExportHasClock
	}
	if s.hasEst {
		rec.Flags |= journal.ExportHasEstimate
		rec.EstT = s.lastEst.Time
		rec.Yaw = s.lastEst.Yaw
		rec.Position = int32(s.lastEst.Position)
		rec.Source = uint8(s.lastEst.Source)
		rec.MatchDist = s.lastEst.MatchDist
	}
	return rec
}

// restoreCSIGapFrac places the restored session's synthetic CSI anchor
// inside the coasting band: the fraction of the coasting→stale span
// past CoastAfterS. The session therefore computes COASTING at its
// restored clock (not STALE — its state was live moments ago on the
// source node) and the first real CSI sample lands with a
// past-coasting gap, which triggers the standard resume path: tracker
// reset, DEGRADED hold for RecoverAfterS, then HEALTHY.
const restoreCSIGapFrac = 0.25

// RestoreSession rebuilds a session from an export snapshot: a fresh
// pipeline over the (already replicated) profile, the snapshot's
// clock and last estimate seeded in, and the session entering
// COASTING until frames resume — the destination has no idea how much
// of the stream was lost in transit, so it coasts on the carried
// estimate rather than claiming health it cannot prove.
//
// A snapshot without ExportHasClock restores as a fresh session
// (the source never admitted an item, so there is nothing to coast
// on). Items for the session must not be pushed until RestoreSession
// returns.
func (m *Manager) RestoreSession(id string, profile *core.Profile, cfg core.PipelineConfig, snap journal.Record) error {
	if id == "" {
		return ErrNoSessionID
	}
	if snap.Kind != journal.KindExport {
		return fmt.Errorf("%w: restore from kind %v", journal.ErrBadRecord, snap.Kind)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.mu.Unlock()
	pl, err := core.NewPipeline(profile, cfg)
	if err != nil {
		return fmt.Errorf("serve: restore %q: %w", id, err)
	}
	s := &session{id: id, pl: pl}
	if snap.Flags&journal.ExportHasEstimate != 0 {
		s.lastEst = core.Estimate{
			Time:      snap.EstT,
			Yaw:       snap.Yaw,
			Position:  int(snap.Position),
			Source:    core.Source(snap.Source),
			MatchDist: snap.MatchDist,
		}
		s.hasEst = true
	}
	coast := false
	if snap.Flags&journal.ExportHasClock != 0 {
		s.now, s.haveNow = snap.T, true
		if !m.cfg.Health.Disable {
			// Anchor a synthetic last-CSI time inside the coasting band
			// (see restoreCSIGapFrac) so targetHealth computes COASTING
			// at the restored clock and real CSI resuming takes the
			// standard recovery path.
			hc := &m.cfg.Health
			gap := hc.CoastAfterS + restoreCSIGapFrac*(hc.StaleAfterS-hc.CoastAfterS)
			s.lastCSI, s.haveCSI = snap.T-gap, true
			coast = true
		}
	}
	if err := m.adopt(s); err != nil {
		return err
	}
	if coast {
		// The transition is journaled and counted like any other; it
		// runs after adopt so a failed restore leaves no trace, and
		// before any item can reach the session (the caller must not
		// route items until RestoreSession returns).
		m.transition(s, Coasting)
	}
	return nil
}
