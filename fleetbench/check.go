package main

import (
	"fmt"
	"math"
	"sort"

	"vihot/internal/core"
	"vihot/internal/geom"
	"vihot/internal/journal"
)

// checks collects the run's correctness checks. A failed check fails
// the run; none is ever skipped.
type checks struct {
	failed []string
	passed int
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if ok {
		c.passed++
		return
	}
	c.failed = append(c.failed, fmt.Sprintf(format, args...))
}

// bySession splits a replay's estimates per session, keeping each
// session's delivery order.
func bySession(recs []estRec, sessions int) [][]estRec {
	out := make([][]estRec, sessions)
	for _, r := range recs {
		out[r.sess] = append(out[r.sess], r)
	}
	return out
}

// sameEstimates compares two estimate sequences bit for bit.
func sameEstimates(a, b []estRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.t) != math.Float64bits(y.t) ||
			math.Float64bits(x.yaw) != math.Float64bits(y.yaw) ||
			math.Float64bits(x.dist) != math.Float64bits(y.dist) ||
			x.pos != y.pos || x.src != y.src {
			return false
		}
	}
	return true
}

// checkReplay verifies one drained replay: the estimates themselves,
// the serving layer's conservation identities, the cluster ledger and
// the journal. It returns how many offered items were lost.
func checkReplay(c *checks, s *server, sk *sink, res *replayResult, journalPath string) tally {
	in := s.in
	recs := sk.records()
	c.expect(sk.n.Load() <= int64(len(sk.recs)), "estimate storage overflowed: %d estimates", sk.n.Load())
	c.expect(len(recs) > 0, "no estimates delivered")
	c.expect(len(res.ctlErrs) == 0, "control plane errors: %v", res.ctlErrs)
	c.expect(res.decodeErrs == 0, "%d datagrams failed to decode", res.decodeErrs)

	finite := true
	for _, r := range recs {
		if math.IsNaN(r.t) || math.IsInf(r.t, 0) || math.IsNaN(r.yaw) || math.IsInf(r.yaw, 0) {
			finite = false
		}
	}
	c.expect(finite, "non-finite estimate")
	per := bySession(recs, len(in.sessions))
	ordered := true
	for _, rs := range per {
		for i := 1; i < len(rs); i++ {
			if !(rs[i].t > rs[i-1].t) {
				ordered = false
			}
		}
	}
	c.expect(ordered, "a session's estimates are out of time order")

	// Sessions replaying one stream must agree estimate for estimate.
	first := map[int]int{}
	replicasAgree := true
	for i, fs := range in.sessions {
		if j, ok := first[fs.stream]; ok {
			replicasAgree = replicasAgree && sameEstimates(per[i], per[j])
		} else {
			first[fs.stream] = i
		}
	}
	c.expect(replicasAgree, "sessions replaying the same stream disagree")

	// Serve conservation and journal identities (CounterSnapshot).
	var delivered, estimates, shed uint64
	for k, m := range s.mgrs {
		x := m.Counters().Snapshot()
		c.expect(x.Total() == x.Processed+x.DroppedStale+x.DroppedUnknown+x.DroppedClosed+x.RejectedKind,
			"manager %d: conservation: total %d != processed %d + stale %d + unknown %d + closed %d + kind %d",
			k, x.Total(), x.Processed, x.DroppedStale, x.DroppedUnknown, x.DroppedClosed, x.RejectedKind)
		if s.jw != nil {
			c.expect(x.JournalAppended+x.JournalDropped == x.Estimates+x.ToDegraded+x.ToCoasting+x.ToStale+
				x.Recoveries+x.SessionsReaped+x.SessionsClosed,
				"manager %d: journal identity: appended %d + dropped %d != events", k, x.JournalAppended, x.JournalDropped)
			c.expect(x.JournalErrors == 0, "manager %d: %d journal errors", k, x.JournalErrors)
		}
		delivered += x.Processed - x.RejectedTime - x.SanitizeErrors
		estimates += x.Estimates
		shed += x.DroppedStale
	}
	c.expect(estimates == uint64(len(recs)), "managers delivered %d estimates, sink saw %d", estimates, len(recs))

	if s.cl != nil {
		st := s.cl.Stats()
		c.expect(st.Routed == st.Delivered+st.DroppedPartition+st.DroppedDown+st.DroppedUnowned,
			"cluster ledger: routed %d != delivered %d + partition %d + down %d + unowned %d",
			st.Routed, st.Delivered, st.DroppedPartition, st.DroppedDown, st.DroppedUnowned)
		var total uint64
		for _, m := range s.mgrs {
			total += m.Counters().Snapshot().Total()
		}
		c.expect(total == st.Delivered, "cluster delivered %d items, members accepted %d", st.Delivered, total)
		c.expect(st.Routed == uint64(res.routed), "cluster routed %d items, generator pushed %d", st.Routed, res.routed)
		for i, fs := range in.sessions {
			if fs.openNs >= 0 {
				c.expect(res.opened[i], "session %s was never opened", fs.id)
			}
			if fs.closeNs >= 0 {
				c.expect(res.closed[i], "session %s was never closed", fs.id)
			}
		}
		checkJournal(c, s, sk, per, res, journalPath)
	}
	return tally{lost: int64(in.items) - int64(delivered), shed: shed}
}

// tally counts a replay's offered items that were lost: shed, refused
// or not delivered to a pipeline. shed is the queue-shed share of it.
type tally struct {
	lost int64
	shed uint64
}

// checkJournal recovers the churn journal and checks that every
// closed session is there, closed, with its delivered estimates.
func checkJournal(c *checks, s *server, sk *sink, per [][]estRec, res *replayResult, path string) {
	rr, err := journal.RecoverFile(path)
	c.expect(err == nil, "journal recovery: %v", err)
	if err != nil {
		return
	}
	c.expect(rr.CleanShutdown && !rr.Diag.Truncated, "journal not cleanly shut down (truncated %v)", rr.Diag.Truncated)
	st := s.jw.Stats()
	c.expect(st.DroppedFull == 0 && st.Errors == 0, "journal dropped %d records, %d errors", st.DroppedFull, st.Errors)
	bad := 0
	for i, fs := range s.in.sessions {
		ests := per[i]
		want := len(ests) + int(sk.trans[i].Load())
		if res.closed[i] {
			want++
		}
		ss := rr.Sessions[fs.id]
		if want == 0 {
			continue
		}
		ok := ss != nil && ss.Records == want && ss.Closed == res.closed[i]
		if ok && len(ests) > 0 {
			last := ests[len(ests)-1]
			ok = ss.HasEstimate && ss.Estimate.T == last.t && ss.Estimate.Yaw == last.yaw
		}
		if !ok {
			bad++
		}
	}
	c.expect(bad == 0, "journal recovery disagrees with delivered estimates for %d sessions", bad)
}

// score holds what the replay's estimates say, computed after timing.
type score struct {
	latMs              []float64 // intended send → OnEstimate, per estimate due after the warm-up
	p50Ms              float64   // median over the timed replay's windows of their median latency
	errDeg             []float64 // |yaw − truth|, per estimate
	meanErr            float64
	matched, held, all int
}

func scoreReplay(in *inputs, recs []estRec) score {
	sc := score{errDeg: make([]float64, len(recs)), all: len(recs)}
	var windows [][]float64
	for i, r := range recs {
		fs := &in.sessions[r.sess]
		st := &in.streams[fs.stream]
		if due := fs.startNs + int64(r.t*1e9); due >= warmupNs {
			lat := float64(r.wall-due) / 1e6
			sc.latMs = append(sc.latMs, lat)
			w := int((due - warmupNs) / windowNs)
			for len(windows) <= w {
				windows = append(windows, nil)
			}
			windows[w] = append(windows[w], lat)
		}
		sc.errDeg[i] = geom.AngleDistDeg(r.yaw, st.truth.HeadYaw.At(r.t))
		sc.meanErr += sc.errDeg[i] / float64(len(recs))
		switch core.Source(r.src) {
		case core.SourceCSI, core.SourceFused:
			sc.matched++
		case core.SourceHeld:
			sc.matched++
			sc.held++
		}
	}
	sort.Float64s(sc.latMs)
	sort.Float64s(sc.errDeg)
	var p50s []float64
	for _, w := range windows {
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	sc.p50Ms = median(p50s)
	return sc
}

// quantile reads the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
