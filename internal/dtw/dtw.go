// Package dtw implements Dynamic Time Warping, the series-matching
// metric at the heart of ViHOT's head-orientation tracker (Sec. 3.4.4
// of the paper). DTW aligns two series that traverse the same shape at
// different speeds — exactly the mismatch between the slow profiling
// head sweep and fast run-time head turns.
//
// The implementation uses the classic two-row dynamic program with an
// optional Sakoe-Chiba band and early abandoning, and exposes a
// Matcher that reuses its scratch rows so the tracker's hot loop runs
// allocation-free. The banded kernel touches only the O(w) band slice
// of each row (plus one guard cell), so banded cost is O(n·w + m)
// rather than O(n·m). Subsequence, the tracker's search, runs an exact
// LB_Kim → LB_Keogh → banded-DTW pruning cascade in front of the
// kernel. DESIGN.md §16 has the row-arena invariant, the cascade's
// float-safety argument, and the bit-exactness gates for both.
package dtw

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned when either input series is empty.
var ErrEmptyInput = errors.New("dtw: empty input series")

// Options configures a DTW computation.
type Options struct {
	// Window is the Sakoe-Chiba band half-width in samples. Cells with
	// |i·m/n - j| > Window are excluded from the alignment. Zero or
	// negative means no band (full DTW). When the length ratio between
	// the series exceeds Window+1 the band is widened to
	// ⌈m/n⌉-1 so consecutive rows stay connected; otherwise a whole
	// row would be unreachable and the distance silently +Inf.
	Window int

	// AbandonAbove enables early abandoning: if the cheapest reachable
	// cell of a row — plus the final cell's local cost, which every
	// warping path still has to pay — exceeds this cumulative cost, the
	// computation stops and returns +Inf. Zero or negative disables
	// abandoning.
	AbandonAbove float64

	// Circular treats samples as angles in radians and uses the
	// shortest distance around the circle as the local cost, so series
	// that cross the ±π seam still match. CSI phases are circular.
	Circular bool

	// Derivative matches on first differences instead of raw values
	// (derivative DTW): shape-only matching that is immune to constant
	// offsets between query and profile, at the cost of discarding the
	// absolute level that anchors position disambiguation. Exposed for
	// the ablation study.
	Derivative bool
}

// localCost returns |a-b|, or the shortest angular distance when
// circular. Phases coming out of atan2 live in [-π, π], so their
// difference never exceeds 2π and the math.Mod reduction — expensive
// in pure Go — is skipped on the hot path. The guarded slow path is
// bit-identical: for d ≤ 2π, Mod(d, 2π) returns d unchanged (or 0 at
// exactly 2π, which the seam fold below also produces).
func localCost(a, b float64, circular bool) float64 {
	d := math.Abs(a - b)
	if circular && d > math.Pi {
		d = circFold(d)
	}
	return d
}

// circFold maps an absolute difference d > π onto the shortest way
// round the circle. It is split out of localCost so the kernel's inner
// loop pays only the d > π test on the common path.
func circFold(d float64) float64 {
	if d > 2*math.Pi {
		if d = math.Mod(d, 2*math.Pi); d <= math.Pi {
			return d
		}
	}
	return 2*math.Pi - d
}

// effectiveWindow widens a Sakoe-Chiba half-width so the band stays
// connected row to row. Consecutive band centers round(i·slope) move
// by at most ⌈slope⌉ columns, and a cell in row i can reach row i-1
// only within 2w+1 columns, so w ≥ ⌈slope⌉-1 guarantees every band
// cell has a reachable predecessor (and that row 1 still contains
// column 1). For every tracker configuration (slope ≤ 2, window 8)
// the widening is a no-op, which is what keeps the golden trace
// bit-identical.
func effectiveWindow(window int, slope float64) int {
	if minW := int(math.Ceil(slope)) - 1; window < minW {
		return minW
	}
	return window
}

// bandWidth is the half-width Distance uses for an n×mm grid: the
// widened Sakoe-Chiba window, or mm (every column) with no band.
func bandWidth(window, n, mm int) int {
	if window > 0 {
		return effectiveWindow(window, float64(mm)/float64(n))
	}
	return mm
}

// bandRow returns the inclusive column range [lo, hi] of the
// Sakoe-Chiba band on row i of an n×mm grid with slope = mm/n and
// half-width w. Factored out so tests can prove the visited-cell
// count scales with w, not mm.
func bandRow(i int, slope float64, w, mm int) (lo, hi int) {
	center := int(math.Round(float64(i) * slope))
	lo = max(1, center-w)
	hi = min(mm, center+w)
	return lo, hi
}

// Stats counts the work a Matcher has done since it was made. The
// first five fields describe Subsequence's pruning cascade: every
// candidate segment ends in exactly one of the four outcomes, so
// Candidates = CornerPruned + KeoghPruned + Abandoned + Completed.
type Stats struct {
	Candidates   int // (start, length) segments Subsequence considered
	CornerPruned int // rejected by the LB_Kim corner-cell bound
	KeoghPruned  int // rejected by the query-envelope LB_Keogh bound
	Abandoned    int // DTW started, then abandoned on a row bound
	Completed    int // DTW run to the final cell
	Cells        int // DP cells evaluated, by Distance and Subsequence alike
}

// Matcher computes DTW distances while reusing internal scratch
// buffers across calls.
//
// Ownership rules (load-bearing for the concurrent serving engine in
// internal/serve):
//
//   - A Matcher holds only scratch memory and work counters: nothing
//     that affects a result carries between calls, so any sequence of
//     Distance/Subsequence calls returns the same results as with a
//     fresh Matcher.
//   - A Matcher is NOT safe for concurrent use. Exactly one goroutine
//     may call into it at a time; there is no internal locking because
//     the DTW inner loop is the system's hot path. The Stats counters
//     are plain ints for the same reason.
//   - Consequently a Matcher may be shared across many Trackers as
//     long as all of them are driven by the same goroutine — that is
//     how a serve worker amortizes scratch across its sessions (see
//     core.Tracker.SetMatcher).
//
// The two scratch rows double as the banded cost arena: Distance
// initializes only the cells the band visits, carrying a high-water
// mark across rows so stale cells from earlier calls are never read.
type Matcher struct {
	prev, cur []float64
	da, db    []float64 // derivative scratch

	// Band-limit table for the last (n, mm, w) grid shape: row i
	// spans columns [bandLo[i], bandHi[i]].
	bandN, bandM, bandW int
	bandLo, bandHi      []int

	// Subsequence cascade scratch: the LB_Kim corner-cost tables
	// (one entry per profile sample) and the query envelope per
	// segment column for the current candidate length.
	kimFirst, kimLast []float64
	envLo, envHi      []float64

	stats Stats
}

// NewMatcher returns a Matcher with scratch capacity for series of up
// to the given length (it grows on demand).
func NewMatcher(capHint int) *Matcher {
	if capHint < 0 {
		capHint = 0
	}
	return &Matcher{
		prev: make([]float64, 0, capHint+1),
		cur:  make([]float64, 0, capHint+1),
	}
}

// Stats returns the matcher's work counters.
func (m *Matcher) Stats() Stats { return m.stats }

// bandRows returns the band-limit table of an n×mm grid with
// half-width w, indexed by row 1..n. The table is rebuilt only when
// the grid shape changes, so a subsequence scan — one shape per
// candidate length — pays math.Round once per row per length rather
// than once per row per candidate.
func (m *Matcher) bandRows(n, mm, w int) (lo, hi []int) {
	if n != m.bandN || mm != m.bandM || w != m.bandW {
		m.bandLo = grow(m.bandLo, n+1)
		m.bandHi = grow(m.bandHi, n+1)
		slope := float64(mm) / float64(n)
		for i := 1; i <= n; i++ {
			m.bandLo[i], m.bandHi[i] = bandRow(i, slope, w, mm)
		}
		m.bandN, m.bandM, m.bandW = n, mm, w
	}
	return m.bandLo, m.bandHi
}

// Distance returns the unnormalized DTW distance between a and b using
// absolute difference as the local cost and the standard step pattern
// {(i-1,j), (i,j-1), (i-1,j-1)}. With early abandoning enabled the
// result may be +Inf, meaning "worse than the abandon threshold".
//
// The effective band scales the window onto the diagonal of the n×m
// grid so unequal lengths still align corner to corner, widened just
// enough that the band is connected (never empty) on every row.
func (m *Matcher) Distance(a, b []float64, opt Options) (float64, error) {
	if opt.Derivative {
		if len(a) < 2 || len(b) < 2 {
			return 0, ErrEmptyInput
		}
		m.da = Derivatives(a, m.da)
		m.db = Derivatives(b, m.db)
		a, b = m.da, m.db
	}
	n, mm := len(a), len(b)
	if n == 0 || mm == 0 {
		return 0, ErrEmptyInput
	}
	inf := math.Inf(1)
	circ := opt.Circular

	// Early-abandon prescreen: every warping path pays the local cost
	// of both corner cells (1,1) and (n,m), so their sum is a lower
	// bound on the result. lastAdd also tightens the per-row check —
	// any path leaving row i < n still has the final cell ahead of it.
	abandon := inf
	var lastAdd float64
	if opt.AbandonAbove > 0 {
		abandon = opt.AbandonAbove
		c0 := localCost(a[0], b[0], circ)
		if n > 1 || mm > 1 {
			lastAdd = localCost(a[n-1], b[mm-1], circ)
		}
		if c0+lastAdd > abandon {
			return inf, nil
		}
	}
	lo, hi := m.bandRows(n, mm, bandWidth(opt.Window, n, mm))
	d, ok := m.warp(a, b, lo, hi, circ, abandon, lastAdd)
	if !ok {
		return inf, nil
	}
	return d, nil
}

// warp is the banded DP kernel: a indexes rows, b columns, and row i
// visits only columns [lo[i], hi[i]]. It returns ok=false as soon as a
// row's cheapest cell plus lastAdd — the final cell's cost, which
// every path leaving an earlier row still pays — exceeds abandon
// (+Inf never abandons).
//
// It clears and visits only the band slice [lo-1, hi] of each row.
// Invariant: at the start of row i, prev is initialized (inf or a
// cost) on [lo_{i-1}-1, hi_{i-1}]; because band edges are monotone
// non-decreasing, row i only ever reads below that range's floor or —
// after an explicit inf-fill of (hi_{i-1}, hi_i] — inside it.
func (m *Matcher) warp(a, b []float64, lo, hi []int, circ bool, abandon, lastAdd float64) (float64, bool) {
	n, mm := len(a), len(b)
	m.prev = grow(m.prev, mm+1)
	m.cur = grow(m.cur, mm+1)
	prev, cur := m.prev, m.cur
	inf := math.Inf(1)

	// Row 0: only the prefix row 1 reads is initialized.
	prevHi := hi[1]
	prev[0] = 0
	for j := 1; j <= prevHi; j++ {
		prev[j] = inf
	}
	cells := 0
	for i := 1; i <= n; i++ {
		l, h := lo[i], hi[i]
		// Inf-fill the prev cells this row reads beyond the band the
		// previous row actually wrote (band edges only ever grow).
		for j := prevHi + 1; j <= h; j++ {
			prev[j] = inf
		}
		prevHi = h
		cells += h - l + 1
		// pr[k], cr[k] and bs[k-1] are column l-1+k; cr[0] is the
		// guard cell the j==lo step reads as its deletion predecessor.
		pr, cr, bs := prev[l-1:h+1], cur[l-1:h+1], b[l-1:h]
		cr[0] = inf
		left, rowMin, ai := inf, inf, a[i-1]
		for k := 1; k < len(cr); k++ {
			best := pr[k] // insertion
			if pr[k-1] < best {
				best = pr[k-1] // match
			}
			if left < best {
				best = left // deletion
			}
			if best == inf {
				cr[k], left = inf, inf
				continue
			}
			c := math.Abs(ai - bs[k-1])
			if circ && c > math.Pi {
				c = circFold(c)
			}
			v := c + best
			cr[k], left = v, v
			if v < rowMin {
				rowMin = v
			}
		}
		la := lastAdd
		if i == n {
			la = 0 // the final cell is already inside rowMin
		}
		if rowMin+la > abandon {
			m.stats.Cells += cells
			return inf, false
		}
		prev, cur = cur, prev
	}
	m.stats.Cells += cells
	return prev[mm], true
}

// NormalizedDistance returns Distance divided by the number of samples
// actually aligned, making scores comparable across candidate-segment
// lengths — required by Algorithm 1, which compares matches of
// different lengths Lₙ ∈ [0.5W, 2W]. In Derivative mode the aligned
// series are the first differences, one sample shorter each, and the
// normalizer shrinks accordingly.
func (m *Matcher) NormalizedDistance(a, b []float64, opt Options) (float64, error) {
	d, err := m.Distance(a, b, opt)
	if err != nil {
		return 0, err
	}
	return d / float64(alignedLen(len(a), len(b), opt)), nil
}

// alignedLen is the total number of samples Distance aligns for series
// of the given raw lengths under opt — the normalizer shared by
// NormalizedDistance and Subsequence's abandon-bound conversion.
func alignedLen(na, nb int, opt Options) int {
	if opt.Derivative {
		return (na - 1) + (nb - 1)
	}
	return na + nb
}

// Distance is a convenience wrapper allocating a throwaway Matcher.
func Distance(a, b []float64, opt Options) (float64, error) {
	return NewMatcher(len(b)).Distance(a, b, opt)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Derivatives returns the first differences of xs (length len(xs)-1),
// appending into out. Used with Options.Derivative to pre-process both
// series consistently.
func Derivatives(xs []float64, out []float64) []float64 {
	out = out[:0]
	for i := 1; i < len(xs); i++ {
		out = append(out, xs[i]-xs[i-1])
	}
	return out
}
