package dtw

import (
	"errors"
	"math"
)

// ErrNoCandidates is returned when the search space is empty, e.g.
// the profile is shorter than every candidate length.
var ErrNoCandidates = errors.New("dtw: no candidate segments to search")

// Match describes the best-matching segment found by Subsequence.
type Match struct {
	Start  int     // segment start index in the profile series
	Length int     // segment length in samples
	Dist   float64 // normalized DTW distance of the winning segment
}

// End returns the exclusive end index of the matched segment.
func (m Match) End() int { return m.Start + m.Length }

// pruneMargin widens every prune and abandon threshold in Subsequence
// by a relative 2⁻⁵⁰, so that nothing whose normalized distance could
// round to (or below) the best so far is ever cut: ties must survive
// to be broken by scan order. DESIGN.md §16 has the proof.
const pruneMargin = 1 + 0x1p-50

// minPrunable is the smallest best-so-far distance Subsequence prunes
// against. Below the normal range the relative-rounding argument
// behind pruneMargin fails, so such a scan runs unpruned.
const minPrunable = 0x1p-1022

// Subsequence finds the segment of profile that best matches query
// under normalized DTW, enumerating every candidate length in lengths
// and sliding each over the profile with the given stride (≥1). This
// is Lines 3–8 of the paper's Algorithm 1: candidate lengths span
// [0.5W, 2W] to absorb head-turning-speed mismatch between profiling
// and run-time, and the global minimum across all (start, length)
// pairs wins; among equal distances the first in scan order (length
// outer, start inner) wins.
//
// With opt.AbandonAbove unset, the result is exactly — bit for bit —
// that of running NormalizedDistance on every candidate, but most
// candidates never reach DTW. The search is an exact pruning cascade:
//
//  1. LB_Kim: the corner-cell costs cost(q₀, p_k) and cost(q_{n-1},
//     p_k) are tabulated once per search, so the bound every path pays
//     at (1,1) and (n,L) costs two loads and an add per candidate.
//  2. Best-first seed: the candidate with the smallest corner bound is
//     evaluated first, so the scan starts with a tight bound.
//  3. LB_Keogh: per candidate length, the query's min/max over the band
//     rows of each segment column gives a per-column cost floor; a
//     survivor of step 1 pays one O(L) sum with early exit.
//  4. Banded DTW, abandoning on the row bound, for what survives.
//
// Every threshold is best·alignedLen·(1+2⁻⁵⁰): a candidate is cut only
// when its normalized distance provably rounds strictly above the best
// so far. A positive opt.AbandonAbove further caps every candidate's
// unnormalized distance, as in Distance. The matcher's Stats count
// each stage's outcomes.
func (m *Matcher) Subsequence(query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	if len(query) == 0 || len(profile) == 0 {
		return Match{}, ErrEmptyInput
	}
	if stride < 1 {
		stride = 1
	}
	searched, unitLen := false, false
	for _, L := range lengths {
		if L >= 1 && L <= len(profile) {
			searched = true
			unitLen = unitLen || L == 1
		}
	}
	if !searched {
		return Match{}, ErrNoCandidates
	}
	// Derivative mode aligns first differences. A segment's differences
	// are a slice of the profile's, so both series are differenced once
	// and a length-L segment becomes length L-1.
	q, p, shrink := query, profile, 0
	if opt.Derivative {
		if len(query) < 2 || unitLen {
			return Match{}, ErrEmptyInput
		}
		m.da = Derivatives(query, m.da)
		m.db = Derivatives(profile, m.db)
		q, p, shrink = m.da, m.db, 1
	}
	n, circ := len(q), opt.Circular
	limit := math.Inf(1) // the caller's cap on any candidate's unnormalized distance
	if opt.AbandonAbove > 0 {
		limit = opt.AbandonAbove
	}

	m.kimFirst = grow(m.kimFirst, len(p))
	m.kimLast = grow(m.kimLast, len(p))
	kimFirst, kimLast := m.kimFirst, m.kimLast
	for k, v := range p {
		kimFirst[k] = localCost(q[0], v, circ)
		kimLast[k] = localCost(q[n-1], v, circ)
	}

	// Seed: the first candidate in scan order with the smallest corner
	// bound.
	seedIdx, seedStart, seedLen, seedKim := -1, 0, 0, math.Inf(1)
	idx := 0
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		lp := L - shrink
		for s := 0; s+lp <= len(p); s, idx = s+stride, idx+1 {
			kim := kimFirst[s]
			if n > 1 || lp > 1 {
				kim += kimLast[s+lp-1]
			}
			if kim < seedKim {
				seedIdx, seedStart, seedLen, seedKim = idx, s, L, kim
			}
		}
	}

	best, bestIdx := Match{Dist: math.Inf(1)}, math.MaxInt
	if seedIdx >= 0 {
		lp := seedLen - shrink
		lo, hi := m.bandRows(n, lp, bandWidth(opt.Window, n, lp))
		m.stats.Candidates++
		if d, ok := m.warp(q, p[seedStart:seedStart+lp], lo, hi, circ, limit, 0); ok {
			m.stats.Completed++
			if d /= float64(n + lp); d <= best.Dist {
				best, bestIdx = Match{Start: seedStart, Length: seedLen, Dist: d}, seedIdx
			}
		} else {
			m.stats.Abandoned++
		}
	}

	idx = 0
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		lp := L - shrink
		aligned := float64(n + lp)
		bound := pruneBound(best.Dist, aligned, limit)
		var lo, hi []int // band table and envelope, built on first use
		for s := 0; s+lp <= len(p); s, idx = s+stride, idx+1 {
			if idx == seedIdx {
				continue
			}
			m.stats.Candidates++
			first, last := kimFirst[s], 0.0
			if n > 1 || lp > 1 {
				last = kimLast[s+lp-1]
			}
			if first+last > bound {
				m.stats.CornerPruned++
				continue
			}
			if lo == nil {
				lo, hi = m.bandRows(n, lp, bandWidth(opt.Window, n, lp))
				m.envelope(q, lp, lo, hi)
			}
			seg := p[s : s+lp]
			if m.keoghExceeds(seg, first, last, bound, circ) {
				m.stats.KeoghPruned++
				continue
			}
			d, ok := m.warp(q, seg, lo, hi, circ, bound, last)
			if !ok {
				m.stats.Abandoned++
				continue
			}
			m.stats.Completed++
			if d /= aligned; d < best.Dist || d == best.Dist && idx < bestIdx {
				best, bestIdx = Match{Start: s, Length: L, Dist: d}, idx
				bound = pruneBound(best.Dist, aligned, limit)
			}
		}
	}
	if math.IsInf(best.Dist, 1) {
		return Match{}, ErrNoCandidates
	}
	return best, nil
}

// pruneBound converts the best normalized distance so far into the
// unnormalized threshold a candidate with the given aligned length
// must exceed to be cut, capped at limit.
//
// Why the margin suffices: with best ≥ minPrunable (normal), a
// candidate whose normalized distance fl(D/a) is ≤ best has
// D/a ≤ best·(1+2⁻⁵³), so D ≤ best·a·(1+2⁻⁵³); the computed threshold
// is at least best·a·(1−2⁻⁵³)²·(1+2⁻⁵⁰), which is strictly larger.
// Every lower bound is ≤ D in float arithmetic, so such a candidate is
// never cut.
func pruneBound(best, aligned, limit float64) float64 {
	if best >= minPrunable {
		return min(best*aligned*pruneMargin, limit)
	}
	return limit
}

// envelope sets envLo[j] and envHi[j] to the smallest and largest
// query value over the band rows that visit column j+1 of the n×lp
// grid. Every warping path visits every column inside the band, so
// the column's cheapest cell costs at least the distance from the
// segment sample to this range.
func (m *Matcher) envelope(q []float64, lp int, lo, hi []int) {
	m.envLo = grow(m.envLo, lp)
	m.envHi = grow(m.envHi, lp)
	envLo, envHi := m.envLo, m.envHi
	for j := range envLo {
		envLo[j], envHi[j] = math.Inf(1), math.Inf(-1)
	}
	for i, v := range q {
		for j := lo[i+1] - 1; j < hi[i+1]; j++ {
			if v < envLo[j] {
				envLo[j] = v
			}
			if v > envHi[j] {
				envHi[j] = v
			}
		}
	}
}

// keoghExceeds reports whether the LB_Keogh bound of seg exceeds
// bound. The two corner columns contribute their exact corner costs
// first and last (the cells (1,1) and (n,L) every path starts and
// ends on); each interior column contributes the cost floor from the
// query envelope. The sum is taken in column order — the order a
// warping path accumulates its cells — over nonnegative terms, each no
// larger than the cost of some cell the path visits in that column,
// and fl(x+c) is monotone in x, so every partial sum plus last is a
// lower bound on the DTW distance in float arithmetic, not only in
// exact arithmetic.
func (m *Matcher) keoghExceeds(seg []float64, first, last, bound float64, circ bool) bool {
	if len(seg) < 3 {
		return false // no interior column: the corner check was the whole bound
	}
	mid := seg[1 : len(seg)-1]
	envLo, envHi := m.envLo[1:len(seg)-1], m.envHi[1:len(seg)-1]
	lb := first
	for j, v := range mid {
		var c float64
		switch lo, hi := envLo[j], envHi[j]; {
		case v < lo:
			c = envCost(lo-v, hi-v, circ)
		case v > hi:
			c = envCost(v-hi, v-lo, circ)
		default:
			continue
		}
		if lb += c; lb+last > bound {
			return true
		}
	}
	return false
}

// envCost is the cheapest local cost between a sample and any query
// value whose absolute difference from it lies in [near, far], near > 0.
// Linear cost is |x|, so near. The circular cost of a float difference
// d < 2π is d folded at π — exactly what localCost computes, the fold
// being exact by Sterbenz's lemma — a tent with its minimum at an end
// of any interval inside (0, 2π); an interval reaching 2π may wrap to
// zero cost, so it bounds nothing.
func envCost(near, far float64, circ bool) float64 {
	if !circ {
		return near
	}
	if far >= 2*math.Pi {
		return 0
	}
	if near > math.Pi {
		near = 2*math.Pi - near
	}
	if far > math.Pi {
		far = 2*math.Pi - far
	}
	return min(near, far)
}

// CandidateLengths enumerates the candidate match lengths of
// Algorithm 1: from ratioLo·w to ratioHi·w in steps of step samples
// (minimum 1). The returned lengths are clipped to [1, maxLen] and
// deduplicated while preserving order.
func CandidateLengths(w int, ratioLo, ratioHi float64, step, maxLen int) []int {
	if w < 1 || ratioHi < ratioLo {
		return nil
	}
	if step < 1 {
		step = 1
	}
	lo := int(math.Floor(float64(w) * ratioLo))
	hi := int(math.Ceil(float64(w) * ratioHi))
	if lo < 1 {
		lo = 1
	}
	if hi > maxLen {
		hi = maxLen
	}
	var out []int
	seen := make(map[int]bool)
	for L := lo; L <= hi; L += step {
		if !seen[L] {
			seen[L] = true
			out = append(out, L)
		}
	}
	return out
}
