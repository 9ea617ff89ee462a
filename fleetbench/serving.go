package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"vihot/internal/cluster"
	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/journal"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// server is one cold-started instance of a workload's serving path,
// wired the way cmd/vihot-serve wires it: pooled wire decode feeding a
// serve.Manager (or a cluster of them) that recycles frames, with
// profiles resolved through a profilestore.
type server struct {
	in       *inputs
	mgr      *serve.Manager   // drive, parked
	cl       *cluster.Cluster // fleet-churn
	mgrs     []*serve.Manager // every manager whose counters the run reads
	store    *profilestore.Store
	profiles []*core.Profile // built from the raw captures, per config

	// fleet-churn only.
	jw        *journal.Writer
	jfile     *journalFile
	regs      []*obs.Registry
	tracer    *obs.Tracer
	messages  atomic.Uint64 // cluster messages seen by the Drop hook
	scrapeBuf bytes.Buffer
}

// journalFile is the journal's underlying file, wrapped so the traced
// run can time every group-commit write and fsync of its timed replay
// (timed is set when the warm-up ends).
type journalFile struct {
	f     *os.File
	log   *spanLog
	timed atomic.Bool
}

func (j *journalFile) Write(b []byte) (int, error) {
	if j.log == nil || !j.timed.Load() {
		return j.f.Write(b)
	}
	t0 := j.log.now()
	n, err := j.f.Write(b)
	j.log.add(spJWrite, 0, -1, int32(len(b)), t0, j.log.now())
	return n, err
}

func (j *journalFile) Sync() error {
	if j.log == nil || !j.timed.Load() {
		return j.f.Sync()
	}
	t0 := j.log.now()
	err := j.f.Sync()
	j.log.add(spJSync, 0, -1, -1, t0, j.log.now())
	return err
}

// ingest decodes one captured datagram and sanitizes its CSI into a
// phase, returning the pooled frame.
func ingest(b []byte) (float64, error) {
	pkt, err := wifi.DecodePooled(b)
	if err != nil {
		return 0, err
	}
	if pkt.CSI == nil {
		return 0, fmt.Errorf("capture datagram is not CSI")
	}
	phi, err := csi.Sanitize(pkt.CSI, 0, 1)
	csi.PutFrame(pkt.CSI)
	return phi, err
}

// buildProfile is the paper's profiling path for one driver: raw
// capture datagrams → wifi → csi.Sanitize → core.Profiler.
func buildProfile(cp *capture, log *spanLog) (*core.Profile, error) {
	var root, step int32
	var t0 int64
	if log != nil {
		root = log.begin(spBuild, 0, -1, -1)
		t0 = log.now()
	}
	phases := make([]float64, len(cp.frames))
	for i, fr := range cp.frames {
		phi, err := ingest(cp.wire[fr.off : fr.off+uint32(fr.n)])
		if err != nil {
			return nil, fmt.Errorf("capture frame %d: %w", i, err)
		}
		phases[i] = phi
	}
	fallback := make([]float64, len(cp.segs))
	for i, sg := range cp.segs {
		phi, err := ingest(cp.wire[sg.fallbackOff : sg.fallbackOff+uint32(sg.fallbackN)])
		if err != nil {
			return nil, fmt.Errorf("capture fallback %d: %w", i, err)
		}
		fallback[i] = phi
	}
	if log != nil {
		log.add(spIngest, root, -1, int32(len(phases)), t0, log.now())
		step = log.begin(spProfiler, root, -1, -1)
	}
	prof := core.NewProfiler(0)
	fi, li := 0, 0
	for si, sg := range cp.segs {
		prof.StartPosition(sg.position)
		for ; fi < len(cp.frames) && int(cp.frames[fi].seg) == si; fi++ {
			prof.AddPhase(cp.frames[fi].t, phases[fi])
		}
		for ; li < len(cp.labels) && int(cp.labels[li].seg) == si; li++ {
			prof.AddTruth(cp.labels[li].t, cp.labels[li].yaw)
		}
		if !prof.FingerprintCaptured() {
			prof.MarkFingerprint(fallback[si])
		}
		if err := prof.EndPosition(); err != nil {
			return nil, err
		}
	}
	p, err := prof.Build()
	if log != nil {
		log.finish(step)
		log.finish(root)
	}
	return p, err
}

// tracedLoader wraps a loader so each cache miss becomes a span,
// parented to the open that caused it.
func tracedLoader(l profilestore.Loader, log *spanLog) profilestore.Loader {
	if log == nil {
		return l
	}
	return profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
		t0 := log.now()
		p, err := l.Load(key)
		log.add(spLoad, log.ctl.Load(), -1, -1, t0, log.now())
		return p, err
	})
}

// coldStart runs the workload's set-up path on fresh objects: build
// every distinct driver's profile from its capture, create the store
// (over the on-disk library where the workload keeps one), start the
// cluster and journal where the workload has them, and open the
// initial sessions. It returns the server and the set-up wall time.
//
// queueLen overrides the per-shard queue bound when positive; only the
// self-test's fault injection sets it.
func coldStart(in *inputs, sk *sink, runDir string, n, queueLen int, log *spanLog) (*server, time.Duration, error) {
	t0 := time.Now()
	s := &server{in: in, profiles: make([]*core.Profile, len(in.captures))}
	for ci := range in.captures {
		p, err := buildProfile(&in.captures[ci], log)
		if err != nil {
			return nil, 0, fmt.Errorf("profile of %s: %w", in.configs[ci].Name, err)
		}
		s.profiles[ci] = p
	}

	var opens []serve.KeyedOpen
	for _, fs := range in.sessions {
		if fs.openNs < 0 {
			opens = append(opens, serve.KeyedOpen{ID: fs.id, Key: fs.key})
		}
	}
	var errs []error
	if in.libDir == "" {
		s.store = profilestore.New(profilestore.Config{
			Loader: tracedLoader(profilestore.LoaderFunc(func(key string) (*core.Profile, error) {
				ci, ok := in.keyConfig[key]
				if !ok {
					return nil, profilestore.ErrNotFound
				}
				return s.profiles[ci], nil
			}), log),
		})
		s.mgr = serve.New(serve.Config{
			QueueLen:      queueLen,
			RecycleFrames: true,
			Profiles:      s.store,
			OnEstimate:    sk.estimate,
			OnHealth:      sk.health,
		})
		s.mgrs = []*serve.Manager{s.mgr}
		id := beginOpen(log, len(opens))
		errs = s.mgr.OpenSessionsByKey(opens, core.DefaultPipelineConfig())
		endOpen(log, id)
	} else {
		if err := s.startCluster(sk, filepath.Join(runDir, fmt.Sprintf("journal-%d.vhj", n)), queueLen, log); err != nil {
			return nil, 0, err
		}
		id := beginOpen(log, len(opens))
		errs = s.cl.OpenMany(opens, s.store)
		endOpen(log, id)
	}
	d := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("open %s: %w", opens[i].ID, err)
		}
	}
	return s, d, nil
}

// beginOpen starts an open span (its seq holds the number of sessions
// opened) and makes it the parent of the profile loads it triggers.
func beginOpen(log *spanLog, sessions int) int32 {
	if log == nil {
		return 0
	}
	id := log.begin(spOpen, 0, -1, int32(sessions))
	log.ctl.Store(id)
	return id
}

func endOpen(log *spanLog, id int32) {
	if log != nil {
		log.ctl.Store(0)
		log.finish(id)
	}
}

// Cluster shape for fleet-churn.
var churnNodes = []string{"node-0", "node-1"}

// startCluster brings up fleet-churn's production path: a 2-node
// cluster on the loopback ViHC transport, a journal on a real file with
// the default group commit and sync policy, obs metrics and tracing on,
// and a 32-slot profile store over the on-disk library.
func (s *server) startCluster(sk *sink, jpath string, queueLen int, log *spanLog) error {
	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	nodeRegs := map[string]*obs.Registry{}
	s.regs = []*obs.Registry{reg}
	for _, n := range churnNodes {
		nodeRegs[n] = obs.NewRegistry()
		s.regs = append(s.regs, nodeRegs[n])
	}
	s.tracer = obs.NewTracer(0)
	s.jfile = &journalFile{f: f, log: log}
	if s.jw, err = journal.New(journal.Config{W: s.jfile, Metrics: reg}); err != nil {
		f.Close()
		return err
	}
	s.store = profilestore.New(profilestore.Config{
		Capacity: churnStoreSlots,
		Loader:   tracedLoader(profilestore.NewDirLoader(s.in.libDir), log),
		Metrics:  reg,
	})
	s.cl, err = cluster.New(cluster.Config{
		Nodes: churnNodes,
		Serve: serve.Config{
			QueueLen:      queueLen,
			RecycleFrames: true,
			Journal:       s.jw,
			Trace:         s.tracer,
			OnEstimate:    sk.estimate,
			OnHealth:      sk.health,
		},
		// Each node scrapes into its own registry, so per-node counter
		// snapshots stay per node.
		NodeServe: func(name string, base serve.Config) serve.Config {
			base.Metrics = nodeRegs[name]
			return base
		},
		Metrics: reg,
		Drop: func(*cluster.Message) bool {
			s.messages.Add(1)
			return false
		},
	})
	if err != nil {
		s.jw.Close()
		f.Close()
		return err
	}
	for _, n := range churnNodes {
		s.mgrs = append(s.mgrs, s.cl.Node(n).Manager())
	}
	return nil
}

// scrape is one obs scrape: every registry's Prometheus text plus the
// span ring's dump.
func (s *server) scrape() error {
	s.scrapeBuf.Reset()
	for _, r := range s.regs {
		if err := r.WritePrometheus(&s.scrapeBuf); err != nil {
			return err
		}
	}
	s.tracer.Dump()
	return nil
}

// drain is the graceful end of a replay: every queue processed, the
// journal flushed and closed with its trailer.
func (s *server) drain() error {
	if s.mgr != nil {
		s.mgr.CloseDrain()
		return nil
	}
	s.cl.CloseDrain()
	err := s.jw.Close()
	if cerr := s.jfile.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// close tears down a cold start that serves no replay.
func (s *server) close() {
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.cl != nil {
		s.cl.Close()
	}
	if s.jw != nil {
		s.jw.Close()
		s.jfile.f.Close()
		os.Remove(s.jfile.f.Name())
	}
}
