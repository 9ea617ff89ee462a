// Command fleetbench is the repository's end-to-end benchmark: one
// ViHOT receiver serving a fleet of cars, replayed open-loop at
// real-time rate through the production serving path.
//
//	bash fleetbench/run.sh --workload drive --seed 1 --seconds 20 --trace 0
//
// It renders the workload's inputs from the seed, times the set-up
// path over several cold starts, replays every session's stream at its
// own link arrival times, checks the outputs, and prints the
// end-to-end metrics (--trace 0) or, from a separately traced replay
// plus a single-threaded reference replay, the per-layer metrics
// (--trace 1). The last line of standard output is the result object;
// the line before it is the run's record (host, inputs digest, counts).
// --selftest runs every workload briefly and injects faults to show
// the checks fire. DESIGN.md in this directory says why the workloads
// and metrics are what they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// Set-up is timed over this many cold starts on fresh objects per
// run, some before the replay and some after, and reported as their
// median: a single cold start is a few hundred milliseconds, which
// the host's swings would dominate.
const (
	setupBefore = 11
	setupAfter  = 10
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// Self-test fault injection.
	queueLen int  // per-shard queue bound override
	tamper   bool // corrupt one recorded estimate before the checks
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed before the result: what ran, on what, with which
// inputs. None of it is a metric.
type record struct {
	Host      hostRecord `json:"host"`
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Inputs    string     `json:"inputs_sha256"`
	Sessions  int        `json:"sessions"`
	Streams   int        `json:"streams"`
	Frames    int        `json:"frames"`
	Items     int        `json:"items"`
	Estimates int        `json:"estimates"`
	// LatencySamples are the estimates due after the warm-up, the
	// sample behind est_p50_ms.
	LatencySamples int `json:"latency_samples"`
	// The paper's median error and the 90th percentile; on parked both
	// read 0 (still heads, exact front-facing estimates), so the
	// end-to-end accuracy metrics are the mean and the 99th percentile.
	YawErrP50   float64   `json:"yaw_err_p50_deg"`
	YawErrP90   float64   `json:"yaw_err_p90_deg"`
	SetupS      []float64 `json:"setup_samples_s"`
	CPUWindows  []float64 `json:"cpu_us_per_frame_windows"`
	EstP99Ms    float64   `json:"est_p99_ms"`
	LatenessMs  float64   `json:"generator_lateness_max_ms"`
	BacklogMax  int64     `json:"backlog_max_items"`
	Ticks       int       `json:"generator_ticks"`
	ChecksOK    int       `json:"checks_passed"`
	CheckErrors []string  `json:"check_failures"`
}

func main() {
	var o options
	var traceFlag int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload: drive, parked or fleet-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "replay length in stream seconds (real time)")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and prove the checks fire")
	flag.Parse()
	o.trace = traceFlag == 1

	if selftest {
		if err := runSelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	if o.workload == "" || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: fleetbench --workload drive|parked|fleet-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	printResult(rec, res)
}

func printResult(rec record, res result) {
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]record{"record": rec})
	enc.Encode(res)
}

// run is one benchmark run of one workload.
func run(o options) (result, record, error) {
	runDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return result{}, record{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, record{}, err
	}
	defer os.RemoveAll(runDir)
	a := &arena{}
	defer a.free()

	rec := record{Host: newHostRecord(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds}
	rec.Host.CalibBefore = calibrate()
	in, err := render(o.workload, o.seed, o.seconds, runDir, a)
	if err != nil {
		return result{}, record{}, err
	}
	rec.Inputs, rec.Sessions, rec.Streams, rec.Frames, rec.Items =
		in.digest, len(in.sessions), len(in.streams), in.frames, in.items

	sk := newSink(in, a)
	var (
		sk2 *sink
		log *spanLog
	)
	if o.trace {
		sk2 = newSink(in, a)
		// Two spans per item offered, about three per item of each
		// distinct stream in the reference replay, one per generator
		// tick, and a margin for set-up and the control plane.
		log = newSpanLog(a, 2*in.items+3*in.items*len(in.streams)/len(in.sessions)+int(o.seconds)*10000+50000)
	}
	// Everything allocated so far is the benchmark's own; the serving
	// path's live heap is measured on top of it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var c checks
	var setups []float64
	var s *server
	for i := 0; i < setupBefore; i++ {
		runtime.GC()
		x, d, err := coldStart(in, sk, runDir, i, o.queueLen, nil)
		if err != nil {
			return result{}, record{}, err
		}
		setups = append(setups, d.Seconds())
		checkProfiles(&c, in, x)
		if i < setupBefore-1 {
			x.close()
		} else {
			s = x
		}
	}

	res := s.replay(sk, nil)
	heapLive := float64(int64(res.heapAlloc)-int64(baseline)) / (1 << 20)
	if err := s.drain(); err != nil {
		c.expect(false, "drain: %v", err)
	}
	if o.tamper {
		tamper(sk, math.NaN())
	}
	tally := checkReplay(&c, s, sk, &res, journalPath(s))
	sc := scoreReplay(in, sk.records())

	var layers map[string]metric
	if o.trace {
		runtime.GC()
		s2, _, err := coldStart(in, sk2, runDir, setupBefore, o.queueLen, log)
		if err != nil {
			return result{}, record{}, err
		}
		checkProfiles(&c, in, s2)
		res2 := s2.replay(sk2, log)
		if err := s2.drain(); err != nil {
			c.expect(false, "drain: %v", err)
		}
		if o.tamper {
			tamper(sk2, 1e-9)
		}
		checkReplay(&c, s2, sk2, &res2, journalPath(s2))
		ref, err := referenceReplay(in, s2.profiles, log)
		if err != nil {
			return result{}, record{}, err
		}
		per := bySession(sk.records(), len(in.sessions))
		per2 := bySession(sk2.records(), len(in.sessions))
		mismatch := 0
		for i, fs := range in.sessions {
			if !sameEstimates(per2[i], ref[fs.stream]) || !sameEstimates(per[i], per2[i]) {
				mismatch++
			}
		}
		c.expect(mismatch == 0, "%d sessions' concurrent estimates differ from the single-threaded replay", mismatch)
		c.expect(log.dropped.Load() == 0, "span log full: %d spans dropped", log.dropped.Load())
		layers = layerMetrics(in, log, s2, &res, &res2, sc, sk2, tally)
		if err := writeSpans(filepath.Join(filepath.Dir(runDir), "spans-"+o.workload+".bin"), log.recorded()); err != nil {
			return result{}, record{}, err
		}
	}

	for i := 0; i < setupAfter; i++ {
		runtime.GC()
		x, d, err := coldStart(in, sk, runDir, setupBefore+1+i, o.queueLen, log)
		if err != nil {
			return result{}, record{}, err
		}
		setups = append(setups, d.Seconds())
		checkProfiles(&c, in, x)
		x.close()
	}
	rec.Host.CalibAfter = calibrate()
	rec.Host.MaxRSSMB = maxRSSMB()

	rec.Estimates, rec.LatencySamples = sc.all, len(sc.latMs)
	rec.YawErrP50, rec.YawErrP90 = quantile(sc.errDeg, 0.5), quantile(sc.errDeg, 0.9)
	rec.SetupS = setups
	rec.EstP99Ms = quantile(sc.latMs, 0.99)
	rec.LatenessMs = float64(res.lateMaxNs) / 1e6
	rec.BacklogMax = res.backlogMax
	rec.Ticks = res.ticks
	rec.ChecksOK, rec.CheckErrors = c.passed, c.failed

	cpu, cpuWindows := res.cpuPerFrame(in)
	rec.CPUWindows = cpuWindows
	out := result{Correct: len(c.failed) == 0, Attempted: int64(in.items), Failed: tally.lost}
	if o.trace {
		out.Metrics = layers
	} else {
		out.Metrics = map[string]metric{
			"setup_s":          {median(setups), "s"},
			"cpu_us_per_frame": {cpu, "us"},
			"est_p50_ms":       {sc.p50Ms, "ms"},
			"yaw_err_mean_deg": {sc.meanErr, "deg"},
			"yaw_err_p99_deg":  {quantile(sc.errDeg, 0.99), "deg"},
			"heap_live_mb":     {heapLive, "MB"},
		}
	}
	return out, rec, nil
}

func journalPath(s *server) string {
	if s.jfile == nil {
		return ""
	}
	return s.jfile.f.Name()
}

// checkProfiles verifies that a cold start built every driver's
// profile identically: the same fingerprint as the first build and,
// where the workload keeps a library, as the library's file.
func checkProfiles(c *checks, in *inputs, s *server) {
	if in.fingerprints == nil {
		for _, p := range s.profiles {
			in.fingerprints = append(in.fingerprints, p.Fingerprint())
		}
		return
	}
	for ci, p := range s.profiles {
		c.expect(p.Fingerprint() == in.fingerprints[ci], "profile of %s built differently across cold starts", in.configs[ci].Name)
	}
}

// tamper corrupts the middle recorded estimate's yaw: by NaN, or by
// the given offset.
func tamper(sk *sink, delta float64) {
	recs := sk.records()
	if len(recs) == 0 {
		return
	}
	r := &recs[len(recs)/2]
	if math.IsNaN(delta) {
		r.yaw = delta
	} else {
		r.yaw += delta
	}
}
