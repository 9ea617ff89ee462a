package dtw

// Equivalence suite for Subsequence's pruning cascade: the LB_Kim and
// LB_Keogh prunes, the best-first seed and the abandoning kernel may
// only ever skip candidates that cannot win, so the returned Match
// must be bit-identical — Start, Length and the Float64bits of Dist —
// to an exhaustive scan that scores every candidate with a textbook
// full-grid DP and keeps the first strict minimum in scan order. Ties
// are the sharp edge (a pruned tie silently moves the winner), so
// half the inputs are quantized onto a coarse grid to make exact
// ties common.

import (
	"math"
	"testing"

	"vihot/internal/stats"
)

// referenceDistance is unbanded-arena DTW: the whole (n+1)×(m+1) grid,
// band membership straight from bandRow, no abandoning. Costs are
// accumulated along the same predecessors in the same float order as
// the kernel, so a correct kernel agrees with it bit for bit.
func referenceDistance(a, b []float64, opt Options) (float64, error) {
	if opt.Derivative {
		if len(a) < 2 || len(b) < 2 {
			return 0, ErrEmptyInput
		}
		a, b = Derivatives(a, nil), Derivatives(b, nil)
	}
	n, mm := len(a), len(b)
	if n == 0 || mm == 0 {
		return 0, ErrEmptyInput
	}
	inf := math.Inf(1)
	g := make([][]float64, n+1)
	for i := range g {
		g[i] = make([]float64, mm+1)
		for j := range g[i] {
			g[i][j] = inf
		}
	}
	g[0][0] = 0
	slope := float64(mm) / float64(n)
	w := mm
	if opt.Window > 0 {
		w = effectiveWindow(opt.Window, slope)
	}
	for i := 1; i <= n; i++ {
		lo, hi := bandRow(i, slope, w, mm)
		for j := lo; j <= hi; j++ {
			best := g[i-1][j]
			if g[i-1][j-1] < best {
				best = g[i-1][j-1]
			}
			if g[i][j-1] < best {
				best = g[i][j-1]
			}
			if math.IsInf(best, 1) {
				continue
			}
			g[i][j] = localCost(a[i-1], b[j-1], opt.Circular) + best
		}
	}
	return g[n][mm], nil
}

// subsequenceReference is the exhaustive scan the cascade must equal:
// every candidate scored without abandoning, normalized by alignedLen,
// strict < so the first minimum in scan order wins.
func subsequenceReference(query, profile []float64, lengths []int, stride int, opt Options) (Match, error) {
	if len(query) == 0 || len(profile) == 0 {
		return Match{}, ErrEmptyInput
	}
	if stride < 1 {
		stride = 1
	}
	best := Match{Dist: math.Inf(1)}
	searched := false
	for _, L := range lengths {
		if L < 1 || L > len(profile) {
			continue
		}
		for start := 0; start+L <= len(profile); start += stride {
			searched = true
			d, err := referenceDistance(query, profile[start:start+L], opt)
			if err != nil {
				return Match{}, err
			}
			d /= float64(alignedLen(len(query), L, opt))
			if d < best.Dist {
				best = Match{Start: start, Length: L, Dist: d}
			}
		}
	}
	if !searched || math.IsInf(best.Dist, 1) {
		return Match{}, ErrNoCandidates
	}
	return best, nil
}

// checkSubsequence asserts Subsequence (on a reused matcher) and the
// reference agree bit for bit, including which error they return.
func checkSubsequence(t *testing.T, m *Matcher, query, profile []float64, lengths []int, stride int, opt Options) {
	t.Helper()
	got, gotErr := m.Subsequence(query, profile, lengths, stride, opt)
	want, wantErr := subsequenceReference(query, profile, lengths, stride, opt)
	if gotErr != wantErr {
		t.Fatalf("n=%d profile=%d lengths=%v stride=%d opt=%+v: error %v, reference %v",
			len(query), len(profile), lengths, stride, opt, gotErr, wantErr)
	}
	if got.Start != want.Start || got.Length != want.Length ||
		math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
		t.Fatalf("n=%d profile=%d lengths=%v stride=%d opt=%+v: %+v, reference %+v",
			len(query), len(profile), lengths, stride, opt, got, want)
	}
	if gotErr == nil && (math.IsNaN(got.Dist) || math.IsInf(got.Dist, 0)) {
		t.Fatalf("non-finite match distance %v", got.Dist)
	}
}

// equivSeries draws a series in one of three value regimes: smooth
// random walk, a coarse decimal grid of a few levels (tie-heavy), or
// values hugging the ±π seam.
func equivSeries(rng *stats.RNG, n, regime int) []float64 {
	xs := make([]float64, n)
	v := rng.Uniform(-1, 1)
	for i := range xs {
		switch regime {
		case 0:
			v += rng.Normal(0, 0.3)
			if v > math.Pi {
				v -= 2 * math.Pi
			} else if v < -math.Pi {
				v += 2 * math.Pi
			}
			xs[i] = v
		case 1:
			// Tenths are inexact in binary, so equal distances arise
			// from unequal sums and lengths: ties that only survive a
			// prune bound with rounding margin.
			xs[i] = float64(int(rng.Uniform(-3, 4))) / 10
		default:
			side := math.Pi
			if rng.Uniform(0, 1) < 0.5 {
				side = -math.Pi
			}
			xs[i] = side - math.Copysign(rng.Uniform(0, 0.3), side)
		}
	}
	return xs
}

func TestSubsequenceMatchesExhaustive(t *testing.T) {
	rng := stats.NewRNG(2024)
	m := NewMatcher(8) // one matcher across every case: scratch reuse is part of the contract
	cases := 3000
	if testing.Short() {
		cases = 600
	}
	for c := 0; c < cases; c++ {
		n := 2 + int(rng.Uniform(0, 12))
		plen := 1 + int(rng.Uniform(0, 60))
		regime := c % 3
		query := equivSeries(rng, n, regime)
		profile := equivSeries(rng, plen, regime)
		if c%5 == 0 && plen > n {
			// Plant the query (or a perturbed copy) so exact and
			// near-exact matches occur.
			at := int(rng.Uniform(0, float64(plen-n)))
			copy(profile[at:], query)
		}
		var lengths []int
		if c%4 == 0 {
			// Hand-rolled lists: duplicates, out-of-range and unit lengths.
			for k := 0; k < 1+int(rng.Uniform(0, 5)); k++ {
				lengths = append(lengths, int(rng.Uniform(-1, float64(plen)+3)))
			}
		} else {
			lengths = CandidateLengths(n, 0.5, 2, 1+int(rng.Uniform(0, 2)), plen)
		}
		opt := Options{
			Window:     int(rng.Uniform(0, 10)),
			Circular:   c%2 == 0,
			Derivative: c%7 == 3,
		}
		stride := 1 + int(rng.Uniform(0, 3))
		checkSubsequence(t, m, query, profile, lengths, stride, opt)
	}
}

// TestSubsequenceTieSurvivesRounding pins a tie that a prune bound of
// plain best·alignedLen loses: the seed (Start 8) and the earlier
// candidate at Start 2 have the same normalized distance, but the
// earlier one's unnormalized distance rounds above best·alignedLen, so
// without the (1+2⁻⁵⁰) margin it is cut and the later seed wins.
func TestSubsequenceTieSurvivesRounding(t *testing.T) {
	query := []float64{0.2, -0.1}
	profile := []float64{0, 0, 0.3, -0.1, 0, 0.3, 0.2, 0, 0.3, -0.2, -0.1}
	checkSubsequence(t, NewMatcher(8), query, profile, []int{4, 3}, 1, Options{Circular: true})
}

// TestSubsequenceTrackerShaped runs the tracker's own geometry — a
// 10-sample query, lengths 5..19 step 2, stride 2, band 8, circular —
// over long profiles, where the pruning stages actually fire.
func TestSubsequenceTrackerShaped(t *testing.T) {
	m := NewMatcher(8)
	for seed := int64(0); seed < 40; seed++ {
		profile := randWalk(300+seed, 800)
		query := randWalk(900+seed, 10)
		if seed%2 == 0 {
			at := 50 + int(seed)*13
			for i := range query {
				query[i] = profile[at+2*i]
			}
		}
		if seed%4 == 1 {
			for i := range query {
				query[i] = math.Round(query[i]*4) / 4
			}
			for i := range profile {
				profile[i] = math.Round(profile[i]*4) / 4
			}
		}
		lengths := CandidateLengths(len(query), 0.5, 2, 2, len(profile))
		checkSubsequence(t, m, query, profile, lengths, 2, Options{Window: 8, Circular: true})
	}
}

// TestSubsequenceStats pins the cascade's per-stage outcome counts on
// a fixed tracker-shaped fixture, the way TestBandedCellCountScales…
// pins cells: a change that prunes less (or visits more cells) shows
// here before it shows in a benchmark.
func TestSubsequenceStats(t *testing.T) {
	profile := randWalk(5, 800)
	query := make([]float64, 10)
	for i := range query {
		query[i] = profile[400+2*i] + 0.05*math.Sin(float64(i))
	}
	lengths := CandidateLengths(len(query), 0.5, 2, 2, len(profile))
	m := NewMatcher(8)
	if _, err := m.Subsequence(query, profile, lengths, 2, Options{Window: 8, Circular: true}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if sum := st.CornerPruned + st.KeoghPruned + st.Abandoned + st.Completed; sum != st.Candidates {
		t.Fatalf("stage outcomes %d != candidates %d: %+v", sum, st.Candidates, st)
	}
	want := Stats{Candidates: 3156, CornerPruned: 2993, KeoghPruned: 70, Abandoned: 92, Completed: 1, Cells: 5753}
	if st != want {
		t.Fatalf("cascade stats %+v, want %+v", st, want)
	}
}

// FuzzSubsequence: for any parameters and any finite series, the
// cascade equals the exhaustive scan, never panics, and a returned
// match has a finite distance.
func FuzzSubsequence(f *testing.F) {
	f.Add([]byte{8, 1, 8, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0, 0xb0, 0xc0})
	f.Add([]byte{3, 0, 2, 3, 0x80, 0x80, 0x81, 0x7f, 0x80, 0x80, 0x80, 0x81, 0x80, 0x7f, 0x80})
	f.Add([]byte{12, 2, 0, 4, 0x00, 0xff, 0x00, 0xff, 0x01, 0xfe, 0x02, 0xfd, 0x03, 0xfc, 0x04, 0xfb, 0x05})
	f.Add([]byte{1, 1, 9, 7, 1, 2, 3})
	m := NewMatcher(8)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 400 {
			return
		}
		n := 1 + int(data[0])%13
		stride := 1 + int(data[1])%3
		window := int(data[2]) % 10
		flags := data[3]
		body := data[4:]
		if len(body) <= n {
			return
		}
		// Values: a coarse grid (tie-heavy) or offsets around the seam.
		val := func(b byte) float64 {
			if flags&4 != 0 {
				return math.Copysign(math.Pi, float64(int(b)-128)) - float64(int(b)-128)/1024
			}
			return float64(int(b)-128) / 32
		}
		query := make([]float64, n)
		for i := range query {
			query[i] = val(body[i])
		}
		profile := make([]float64, len(body)-n)
		for i := range profile {
			profile[i] = val(body[n+i])
		}
		step := 1 + int(flags>>4)%2
		lengths := CandidateLengths(max(n, 2), 0.5, 2, step, len(profile))
		if flags&8 != 0 {
			lengths = append(lengths, lengths...) // duplicates rescan the same candidates
		}
		opt := Options{Window: window, Circular: flags&1 != 0, Derivative: flags&2 != 0}
		checkSubsequence(t, m, query, profile, lengths, stride, opt)
	})
}
