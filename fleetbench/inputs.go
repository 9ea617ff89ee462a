package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"vihot/internal/camera"
	"vihot/internal/driver"
	"vihot/internal/profilestore"
	"vihot/internal/scenario"
	"vihot/internal/serve"
	"vihot/internal/stats"
	"vihot/internal/wifi"
)

// Everything a run replays is rendered here, before any timing starts.
// The bulk of it — wire datagrams, item tables, camera frames, the
// schedule — is moved into pointer-free arena memory outside the Go
// heap (see arena).

// Item kinds of a rendered stream.
const (
	evFrame  uint8 = iota // CSI datagram in wire format
	evIMU                 // IMU datagram in wire format
	evCamera              // camera estimate (the camera feed has no wire type)
)

// event is one item of a session's stream, in delivery order.
type event struct {
	t    float64 // the item's own stream timestamp (s)
	off  uint32  // offset into stream.wire, or index into stream.cams
	n    uint16  // datagram length
	kind uint8
}

// stream is one rendered session stream. Several sessions may replay
// the same stream (parked replicas).
type stream struct {
	config int // index into inputs.configs
	wire   []byte
	cams   []camera.Estimate
	events []event
	frames int
	truth  *driver.Scenario
}

// fleetSession is one session of the workload's fleet.
type fleetSession struct {
	id     string
	key    string // profile key
	stream int
	// startNs is the replay instant (ns after replay start) at which
	// the stream's time 0 is due; items are due at startNs + t.
	startNs int64
	// openNs is when the control plane opens the session, -1 when it
	// is opened during set-up; closeNs is when it is closed, -1 when it
	// stays open to the end of the run.
	openNs, closeNs int64
}

// capFrame, capLabel and capSeg are one driver's raw profiling
// capture: the sweep's CSI datagrams and the ground-truth labels, cut
// into the profiler's head positions.
type capFrame struct {
	t   float64
	off uint32
	n   uint16
	seg uint16
}

type capLabel struct {
	t, yaw float64
	seg    uint16
}

type capSeg struct {
	position int
	// fallback is the datagram at the settle midpoint, used when the
	// profiler's stability detector captured no fingerprint.
	fallbackOff uint32
	fallbackN   uint16
}

type capture struct {
	wire   []byte
	frames []capFrame
	labels []capLabel
	segs   []capSeg
}

// slot is one entry of the merged open-loop schedule.
type slot struct {
	due  int64 // ns after replay start
	sess int32
	ev   int32
}

// inputs is one workload's rendered fleet for one seed.
type inputs struct {
	seconds  float64
	configs  []scenario.Config
	captures []capture // one per config: the distinct drivers built at set-up
	streams  []stream
	sessions []fleetSession
	// keyConfig maps every profile key to the config (driver) it
	// belongs to.
	keyConfig map[string]int
	// libDir, when set, holds the workload's on-disk profile library:
	// one file per key, resolved through a profilestore.DirLoader.
	libDir string
	// fingerprints are the reference profile fingerprints, per config:
	// the library's where the workload keeps one, else the first
	// cold start's. Every set-up build must reproduce them.
	fingerprints []uint64
	schedule     []slot
	frames       int // CSI frames offered over the whole replay
	items        int // all items offered
	// timedFrames are the CSI frames due in the timed replay, after the
	// warm-up.
	timedFrames int
	digest      string
}

// What the seed varies. The tracked content — every cabin, trajectory
// and CSI render — is fixed per workload: across renders of a 16-car
// fleet the trajectory draws alone move the DTW share, and with it CPU
// per frame and every accuracy figure, by tens of percent, which no
// regression bound can hold. The seed varies what the serving path
// sees of that fleet instead: each session's start phase (so the
// open-loop interleaving differs), its session id (so shard placement
// differs), and in fleet-churn the driver key naming each session's
// profile (so store sharding and evictions differ).
const (
	contentSeed = 20181204
	maxPhaseS   = 0.5 // session start phases are uniform in [0, maxPhaseS)
)

// corpusConfigs is the committed corpus with fault schedules removed:
// blackouts and clock faults make the serving layer's health machine
// coast and reset trackers, which the single-threaded reference replay
// does not model, and a fault that sheds items would read as lost load.
func corpusConfigs(seconds float64) []scenario.Config {
	var out []scenario.Config
	for _, c := range scenario.Corpus() {
		c.Faults = nil
		c.DurationS = seconds
		out = append(out, c)
	}
	return out
}

// parkedConfigs are four parked cars with motionless heads: drivers A
// and C, alone or beside a still passenger. Once the tracker's
// stability detector reads a still head it reports front-facing
// estimates without DTW, so parked measures the per-frame path. Rider
// seat-lean shifts are left out: each rider car's glances put DTW at a
// third of the fleet's service time. Driver B is left out too: its
// motionless head never reads as stable, so every one of its estimates
// runs DTW.
func parkedConfigs(seconds float64) []scenario.Config {
	var out []scenario.Config
	for i, v := range []struct {
		driver    string
		occupants int
	}{{"A", 1}, {"C", 1}, {"A", 2}, {"C", 2}} {
		out = append(out, scenario.Config{
			Name:         fmt.Sprintf("parked-%c", 'a'+i),
			Seed:         contentSeed + int64(i),
			DurationS:    seconds,
			Occupants:    v.occupants,
			Driver:       v.driver,
			Trajectories: []scenario.TrajectoryWeight{{Kind: scenario.TrajStill, Weight: 1}},
		})
	}
	return out
}

// Fleet sizes. Each is chosen so that the parent commit keeps two
// CPUs less than half busy at real-time rate, leaving headroom for
// the host's own swings.
const (
	driveSessions    = 16
	parkedStreams    = 16
	parkedReplicas   = 4 // sessions replaying each parked stream: 64 cars
	churnSlots       = 16
	churnKeys        = 96
	churnHotKeys     = 16
	churnStoreSlots  = 32
	churnOpenLeadNs  = 200e6 // open a session this long before its first item
	churnCloseLagNs  = 1e9   // close it this long after its last item
	churnMinLifeS    = 4.0
	churnMaxLifeS    = 8.0
	churnMinTailS    = 2.0 // never start a session with less run left than this
	churnScrapeEvery = 1e9 // obs scrape cadence (ns)
)

// render builds the workload's inputs for one seed. runDir receives
// the on-disk profile library of workloads that keep one.
func render(workload string, seed int64, seconds float64, runDir string, a *arena) (*inputs, error) {
	in := &inputs{seconds: seconds, keyConfig: map[string]int{}}
	// Streams cover the warm-up plus the timed replay.
	total := seconds + warmupNs/1e9
	sched := stats.NewRNG(seed)
	phase := func() int64 { return int64(sched.Uniform(0, maxPhaseS) * 1e9) }
	tag := func() string { return fmt.Sprintf("%04x", sched.Intn(1<<16)) }
	type job struct {
		config, session int
		dur             float64
	}
	var jobs []job
	switch workload {
	case "drive":
		in.configs = corpusConfigs(total)
		counts := scenario.Apportion([]float64{1, 1, 1, 1, 1}, driveSessions)
		for ci, n := range counts {
			in.keyConfig[in.configs[ci].Name] = ci
			for j := 0; j < n; j++ {
				in.sessions = append(in.sessions, fleetSession{
					id: fmt.Sprintf("%s/%02d-%s", in.configs[ci].Name, j, tag()), key: in.configs[ci].Name,
					stream: len(jobs), startNs: phase(), openNs: -1, closeNs: -1,
				})
				jobs = append(jobs, job{ci, j, total})
			}
		}
	case "parked":
		in.configs = parkedConfigs(total)
		for s := 0; s < parkedStreams; s++ {
			ci := s % len(in.configs)
			in.keyConfig[in.configs[ci].Name] = ci
			jobs = append(jobs, job{ci, s / len(in.configs), total})
			for r := 0; r < parkedReplicas; r++ {
				in.sessions = append(in.sessions, fleetSession{
					id:  fmt.Sprintf("%s/%02d.%d-%s", in.configs[ci].Name, s/len(in.configs), r, tag()),
					key: in.configs[ci].Name, stream: s, startNs: phase(), openNs: -1, closeNs: -1,
				})
			}
		}
	case "fleet-churn":
		in.configs = corpusConfigs(total)
		// Key k's driver is config k mod 5; the seed relabels keys
		// within each driver's class.
		label := make([]int, churnKeys)
		for c := 0; c < len(in.configs); c++ {
			var class []int
			for k := c; k < churnKeys; k += len(in.configs) {
				class = append(class, k)
			}
			for i, j := range sched.Perm(len(class)) {
				label[class[i]] = class[j]
			}
		}
		for k := 0; k < churnKeys; k++ {
			in.keyConfig[churnKey(k)] = k % len(in.configs)
		}
		life := stats.NewRNG(contentSeed)
		visits := make([]int, len(in.configs))
		for s := 0; s < churnSlots; s++ {
			t := 0.0
			for t < total-churnMinTailS || t == 0 {
				d := life.Uniform(churnMinLifeS, churnMaxLifeS)
				if t == 0 {
					// The fleet's first sessions outlive the warm-up, so
					// every control-plane operation falls in the timed
					// replay.
					d = life.Uniform(warmupNs/1e9+churnOpenLeadNs/1e9+maxPhaseS, churnMaxLifeS)
				}
				end := math.Min(t+d, total)
				if total-end < churnMinTailS {
					end = total
				}
				k := life.Intn(churnHotKeys)
				if life.Bool(0.4) {
					k = churnHotKeys + life.Intn(churnKeys-churnHotKeys)
				}
				ci := k % len(in.configs)
				key := churnKey(label[k])
				fs := fleetSession{
					id:  fmt.Sprintf("%s/s%02d.%03d-%s", key, s, len(in.sessions), tag()),
					key: key, stream: len(jobs),
					startNs: int64(t*1e9) + phase(), openNs: -1, closeNs: -1,
				}
				if t > 0 {
					fs.openNs = fs.startNs - churnOpenLeadNs
				}
				if end < total {
					fs.closeNs = fs.startNs + int64((end-t)*1e9) + churnCloseLagNs
				}
				in.sessions = append(in.sessions, fs)
				jobs = append(jobs, job{ci, visits[ci], end - t})
				visits[ci]++
				t = end + life.Uniform(0, 0.5)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want drive, parked or fleet-churn)", workload)
	}

	in.streams = make([]stream, len(jobs))
	in.captures = make([]capture, len(in.configs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	renders := len(jobs) + len(in.configs)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= renders {
					return
				}
				var err error
				if i < len(in.configs) {
					var cp capture
					cp, err = renderCapture(in.configs[i])
					cp.wire, cp.frames, cp.labels = move(a, cp.wire), move(a, cp.frames), move(a, cp.labels)
					in.captures[i] = cp
				} else {
					j := jobs[i-len(in.configs)]
					c := in.configs[j.config]
					c.DurationS = j.dur
					var st stream
					st, err = renderStream(c, j.config, j.session)
					st.wire, st.cams, st.events = move(a, st.wire), move(a, st.cams), move(a, st.events)
					in.streams[i-len(in.configs)] = st
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	for i := range in.sessions {
		st := &in.streams[in.sessions[i].stream]
		for e, ev := range st.events {
			in.schedule = append(in.schedule, slot{
				due: in.sessions[i].startNs + int64(ev.t*1e9), sess: int32(i), ev: int32(e)})
		}
		in.frames += st.frames
		in.items += len(st.events)
	}
	for _, sl := range in.schedule {
		st := &in.streams[in.sessions[sl.sess].stream]
		if sl.due >= warmupNs && st.events[sl.ev].kind == evFrame {
			in.timedFrames++
		}
	}
	sort.SliceStable(in.schedule, func(x, y int) bool { return in.schedule[x].due < in.schedule[y].due })
	in.schedule = move(a, in.schedule)

	if workload == "fleet-churn" {
		if err := writeLibrary(in, runDir); err != nil {
			return nil, err
		}
	}
	in.digest = digestInputs(in)
	return in, nil
}

func churnKey(k int) string { return fmt.Sprintf("driver-%03d", k) }

// writeLibrary saves one profile file per driver key, each built from
// its driver's raw capture exactly as set-up builds it.
func writeLibrary(in *inputs, runDir string) error {
	in.libDir = filepath.Join(runDir, "profiles")
	if err := os.MkdirAll(in.libDir, 0o755); err != nil {
		return err
	}
	dl := profilestore.NewDirLoader(in.libDir)
	in.fingerprints = make([]uint64, len(in.captures))
	for ci := range in.captures {
		p, err := buildProfile(&in.captures[ci], nil)
		if err != nil {
			return fmt.Errorf("library profile of %s: %w", in.configs[ci].Name, err)
		}
		in.fingerprints[ci] = p.Fingerprint()
		for k := ci; k < churnKeys; k += len(in.captures) {
			if err := dl.Save(churnKey(k), p); err != nil {
				return err
			}
		}
	}
	return nil
}

// driverStyle resolves a config's driver letter the way the scenario
// package does.
func driverStyle(c scenario.Config) driver.Profile {
	switch c.Driver {
	case "B":
		return driver.DriverB()
	case "C":
		return driver.DriverC()
	default:
		return driver.DriverA()
	}
}

// renderCapture renders one driver's profiling session (Sec. 3.3) as
// the receiver records it: the sweep's CSI datagrams plus 60 Hz
// ground-truth labels with 0.5° noise, cut into head positions — the
// corpus's 5 × 4 s (6 positions for configs that ask for more).
func renderCapture(c scenario.Config) (capture, error) {
	env, err := c.NewEnv(-1)
	if err != nil {
		return capture{}, err
	}
	positions, perPos := c.Profile.Positions, c.Profile.PerPositionS
	if positions == 0 {
		positions = 5
	}
	if perPos == 0 {
		perPos = 4
	}
	const truthRate, labelNoise = 60.0, 0.5
	sc, segs := driver.SweepScenario(driverStyle(c), positions, perPos, 0)
	labelRNG := env.RNG.Fork()
	arrivals := env.Timing.ArrivalTimes(env.RNG.Fork(), sc.Duration)
	var cp capture
	encode := func(t float64) (uint32, uint16, error) {
		off := len(cp.wire)
		var err error
		cp.wire, err = wifi.EncodeCSI(cp.wire, env.FrameAt(sc.State(t)))
		return uint32(off), uint16(len(cp.wire) - off), err
	}
	ai := 0
	for si, seg := range segs {
		for ai < len(arrivals) && arrivals[ai] < seg.End {
			t := arrivals[ai]
			ai++
			if t < seg.Start {
				continue
			}
			off, n, err := encode(t)
			if err != nil {
				return capture{}, err
			}
			cp.frames = append(cp.frames, capFrame{t: t, off: off, n: n, seg: uint16(si)})
		}
		for t := seg.Start; t < seg.End; t += 1 / truthRate {
			cp.labels = append(cp.labels, capLabel{t: t, yaw: sc.HeadYaw.At(t) + labelRNG.Normal(0, labelNoise), seg: uint16(si)})
		}
		off, n, err := encode((seg.Start + seg.SettleEnd) / 2)
		if err != nil {
			return capture{}, err
		}
		cp.segs = append(cp.segs, capSeg{position: seg.Position, fallbackOff: off, fallbackN: n})
	}
	return cp, nil
}

// renderStream renders one session's tracked stream and encodes it
// into wire datagrams.
func renderStream(c scenario.Config, config, session int) (stream, error) {
	rs, err := c.BuildStream("render", session)
	if err != nil {
		return stream{}, err
	}
	st := stream{config: config, truth: rs.Truth}
	for _, it := range rs.Items {
		off := len(st.wire)
		var ev event
		switch it.Kind {
		case serve.KindFrame:
			if st.wire, err = wifi.EncodeCSI(st.wire, it.Frame); err != nil {
				return stream{}, err
			}
			ev = event{t: it.Frame.Time, kind: evFrame}
			st.frames++
		case serve.KindIMU:
			r := it.IMU
			st.wire = wifi.EncodeIMU(st.wire, &r)
			ev = event{t: r.Time, kind: evIMU}
		case serve.KindCamera:
			ev = event{t: it.Camera.Time, kind: evCamera, off: uint32(len(st.cams))}
			st.cams = append(st.cams, it.Camera)
			st.events = append(st.events, ev)
			continue
		default:
			return stream{}, fmt.Errorf("unexpected item kind %d", it.Kind)
		}
		ev.off, ev.n = uint32(off), uint16(len(st.wire)-off)
		st.events = append(st.events, ev)
	}
	return st, nil
}

// digestInputs hashes everything the replay will offer, so two runs
// can be shown to have received the same inputs for one seed.
func digestInputs(in *inputs) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, cp := range in.captures {
		h.Write(cp.wire)
		for _, l := range cp.labels {
			put(math.Float64bits(l.yaw))
		}
	}
	for _, st := range in.streams {
		h.Write(st.wire)
		for _, c := range st.cams {
			put(math.Float64bits(c.Time))
			put(math.Float64bits(c.Yaw))
		}
	}
	for _, s := range in.sessions {
		h.Write([]byte(s.id + "\x00" + s.key + "\x00"))
		put(uint64(s.startNs))
		put(uint64(s.closeNs))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
