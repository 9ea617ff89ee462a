package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vihot/internal/core"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
	"vihot/internal/wifi"
)

// estRec is one delivered estimate as the sink saw it. Pointer-free.
type estRec struct {
	wall         int64 // ns after replay start, at the OnEstimate call
	t, yaw, dist float64
	sess, pos    int32
	src          uint8
}

// sink records estimates into preallocated storage and nothing else:
// scoring happens after timing ends.
type sink struct {
	idx   map[string]int32 // session id → index; read-only after construction
	start time.Time
	recs  []estRec
	n     atomic.Int64
	trans []atomic.Int32 // health transitions per session
}

func newSink(in *inputs, a *arena) *sink {
	sk := &sink{
		idx:   make(map[string]int32, len(in.sessions)),
		recs:  alloc[estRec](a, in.frames+1024),
		trans: make([]atomic.Int32, len(in.sessions)),
	}
	for i, s := range in.sessions {
		sk.idx[s.id] = int32(i)
	}
	return sk
}

func (sk *sink) estimate(id string, est core.Estimate) {
	wall := int64(time.Since(sk.start))
	i := sk.n.Add(1) - 1
	if i >= int64(len(sk.recs)) {
		return // overflow: the record count check fails the run
	}
	sk.recs[i] = estRec{wall: wall, t: est.Time, yaw: est.Yaw, dist: est.MatchDist,
		sess: sk.idx[id], pos: int32(est.Position), src: uint8(est.Source)}
}

func (sk *sink) health(id string, _ float64, _, _ serve.Health) {
	sk.trans[sk.idx[id]].Add(1)
}

// records returns the estimates recorded by the last replay.
func (sk *sink) records() []estRec {
	n := sk.n.Load()
	if n > int64(len(sk.recs)) {
		n = int64(len(sk.recs))
	}
	return sk.recs[:n]
}

// replayResult is what one timed replay measured.
type replayResult struct {
	wallNs, cpuNs int64 // the timed replay, after the warm-up
	// windowCPU[k] and windowEnd[k] are the process CPU time and the
	// schedule index at the k-th window boundary of the timed replay
	// (its start, every windowNs, and the end of the final flush).
	windowCPU  []int64
	windowEnd  []int
	lateMaxNs  int64 // generator's worst lateness against the schedule
	backlogMax int64 // max of accepted − processed − dropped, sampled per tick
	ticks      int
	decodeErrs int
	ctlErrs    []error
	opened     []bool // sessions the control plane opened
	closed     []bool // sessions the control plane closed
	gcs        uint32
	allocBytes uint64
	heapAlloc  uint64 // live heap after a forced GC, sessions still open
	routed     int    // items handed to Cluster.PushBatch
	// store0 and store1 bracket the replay's profile-store traffic.
	store0, store1 profilestore.Stats
}

func cpuNow() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// backlog is accepted − processed − dropped over every manager.
func (s *server) backlog() int64 {
	var b int64
	for _, m := range s.mgrs {
		c := m.Counters().Snapshot()
		b += int64(c.Total()) - int64(c.Processed+c.DroppedStale+c.DroppedUnknown+c.DroppedClosed+c.RejectedKind)
	}
	return b
}

// Control-plane operations of fleet-churn.
const (
	opClose uint8 = iota
	opOpen
	opScrape
)

type ctlOp struct {
	at   int64
	kind uint8
	sess int32
}

func (s *server) controlOps() []ctlOp {
	var ops []ctlOp
	for i, fs := range s.in.sessions {
		if fs.openNs >= 0 {
			ops = append(ops, ctlOp{fs.openNs, opOpen, int32(i)})
		}
		if fs.closeNs >= 0 {
			ops = append(ops, ctlOp{fs.closeNs, opClose, int32(i)})
		}
	}
	for t := int64(warmupNs + churnScrapeEvery); t < int64(warmupNs+s.in.seconds*1e9); t += churnScrapeEvery {
		ops = append(ops, ctlOp{t, opScrape, -1})
	}
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].at != ops[b].at {
			return ops[a].at < ops[b].at
		}
		return ops[a].kind < ops[b].kind
	})
	return ops
}

// control runs fleet-churn's control plane on its own goroutine:
// opens (batched through OpenMany when several fall due together),
// closes and obs scrapes, each at its scheduled instant.
func (s *server) control(start time.Time, log *spanLog, res *replayResult) {
	ops := s.controlOps()
	var opens []serve.KeyedOpen
	var openIdx []int32
	for i := 0; i < len(ops); {
		now := int64(time.Since(start))
		if d := ops[i].at - now; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		opens, openIdx = opens[:0], openIdx[:0]
		for ; i < len(ops) && ops[i].at <= now; i++ {
			op := ops[i]
			var id int32
			switch op.kind {
			case opOpen:
				fs := &s.in.sessions[op.sess]
				opens = append(opens, serve.KeyedOpen{ID: fs.id, Key: fs.key})
				openIdx = append(openIdx, op.sess)
				continue
			case opClose:
				if log != nil {
					id = log.begin(spClose, 0, op.sess, -1)
				}
				if err := s.cl.CloseSession(s.in.sessions[op.sess].id); err != nil {
					res.ctlErrs = append(res.ctlErrs, err)
				} else {
					res.closed[op.sess] = true
				}
			case opScrape:
				if log != nil {
					id = log.begin(spScrape, 0, -1, -1)
				}
				if err := s.scrape(); err != nil {
					res.ctlErrs = append(res.ctlErrs, err)
				}
			}
			if log != nil {
				log.finish(id)
			}
		}
		if len(opens) > 0 {
			id := beginOpen(log, len(opens))
			errs := s.cl.OpenMany(opens, s.store)
			endOpen(log, id)
			for k, err := range errs {
				if err != nil {
					res.ctlErrs = append(res.ctlErrs, err)
				} else {
					res.opened[openIdx[k]] = true
				}
			}
		}
	}
}

// warmupNs is the head of every session's schedule that is replayed
// before timing starts: freshly opened trackers fill their windows and
// rescan every profile position before their first stable reading, a
// one-time cost that a long-running receiver does not pay per frame,
// and that for 64 cars starting together would overload two CPUs.
// Every layer runs on stream time, so the wall-clock pause between the
// warm-up and the timed replay is invisible to the serving path.
// Sessions opened mid-run (fleet-churn) warm up inside the timed
// replay, as they would in service.
const warmupNs = 2e9

// windowNs splits the timed replay into windows; CPU per frame is the
// median over windows, so a host hiccup inside one window does not
// move the run's figure.
const windowNs = 2e9

// warmChunk bounds how many warm-up items are in flight before the
// generator waits for the managers to drain them, far below the
// per-shard queue bound so the warm-up sheds nothing.
const warmChunk = 512

// offer decodes schedule entry i and pushes it (into batch for a
// cluster, flushed once per tick). It reports whether the datagram
// decoded.
func (s *server) offer(i int, tick int32, log *spanLog, batch *[]serve.Item) bool {
	sl := s.in.schedule[i]
	fs := &s.in.sessions[sl.sess]
	st := &s.in.streams[fs.stream]
	ev := st.events[sl.ev]
	it := serve.Item{Session: fs.id}
	if ev.kind == evCamera {
		it.Kind, it.Camera = serve.KindCamera, st.cams[ev.off]
	} else {
		var t0 int64
		if log != nil {
			t0 = log.now()
		}
		pkt, err := wifi.DecodePooled(st.wire[ev.off : ev.off+uint32(ev.n)])
		if log != nil {
			log.add(spDecode, tick, sl.sess, sl.ev, t0, log.now())
		}
		if err != nil {
			return false
		}
		if pkt.CSI != nil {
			it.Kind, it.Frame = serve.KindFrame, pkt.CSI
		} else {
			it.Kind, it.IMU = serve.KindIMU, *pkt.IMU
		}
	}
	switch {
	case s.mgr == nil:
		*batch = append(*batch, it)
	case log == nil:
		s.mgr.Push(it)
	default:
		t0 := log.now()
		s.mgr.Push(it)
		log.add(spPush, tick, sl.sess, sl.ev, t0, log.now())
	}
	return true
}

// route hands a tick's batch to the cluster.
func (s *server) route(batch []serve.Item, tick int32, log *spanLog, res *replayResult) {
	if len(batch) == 0 {
		return
	}
	var t0 int64
	if log != nil {
		t0 = log.now()
	}
	s.cl.PushBatch(batch)
	if log != nil {
		log.add(spRoute, tick, -1, int32(len(batch)), t0, log.now())
	}
	res.routed += len(batch)
}

func (s *server) flush() {
	if s.mgr != nil {
		s.mgr.Flush()
	} else {
		s.cl.Flush()
	}
}

// replay runs the warm-up, forces a GC, then offers the rest of the
// schedule open-loop at real-time rate: one generator goroutine
// decodes each item's datagram when it falls due and pushes it,
// whatever the system's state. CPU and allocation are measured over
// the timed replay and its final flush.
func (s *server) replay(sk *sink, log *spanLog) replayResult {
	in := s.in
	res := replayResult{
		opened: make([]bool, len(in.sessions)),
		closed: make([]bool, len(in.sessions)),
	}
	sk.n.Store(0)
	for i := range sk.trans {
		sk.trans[i].Store(0)
	}
	sched := in.schedule
	var batch []serve.Item
	i := 0
	for i < len(sched) && sched[i].due < warmupNs {
		for j := 0; j < warmChunk && i < len(sched) && sched[i].due < warmupNs; i, j = i+1, j+1 {
			if !s.offer(i, 0, nil, &batch) {
				res.decodeErrs++
			}
		}
		if s.cl != nil {
			s.route(batch, 0, nil, &res)
			clear(batch)
			batch = batch[:0]
		}
		s.flush()
	}

	iTimed := i
	if s.jfile != nil {
		s.jfile.timed.Store(true)
	}
	res.store0 = s.store.Stats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	// Schedule times count from the warm-up's start, so the timed
	// replay begins at warmupNs on that clock.
	start := time.Now().Add(-warmupNs)
	sk.start = start

	var ctl sync.WaitGroup
	if s.cl != nil {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			s.control(start, log, &res)
		}()
	}

	nextWindow := int64(warmupNs + windowNs)
	for i < len(sched) {
		now := int64(time.Since(start))
		if d := sched[i].due - now; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		for now >= nextWindow {
			res.windowCPU = append(res.windowCPU, cpuNow())
			res.windowEnd = append(res.windowEnd, i)
			nextWindow += windowNs
		}
		if late := now - sched[i].due; late > res.lateMaxNs {
			res.lateMaxNs = late
		}
		var tick int32
		if log != nil {
			tick = log.begin(spTick, 0, -1, -1)
		}
		for ; i < len(sched) && sched[i].due <= now; i++ {
			if !s.offer(i, tick, log, &batch) {
				res.decodeErrs++
			}
		}
		if s.cl != nil {
			s.route(batch, tick, log, &res)
			clear(batch)
			batch = batch[:0]
		}
		if log != nil {
			log.finish(tick)
		}
		if b := s.backlog(); b > res.backlogMax {
			res.backlogMax = b
		}
		res.ticks++
	}
	ctl.Wait()
	s.flush()
	res.wallNs = int64(time.Since(start)) - warmupNs
	res.cpuNs = cpuNow() - cpu0
	res.windowCPU = append([]int64{cpu0}, append(res.windowCPU, cpu0+res.cpuNs)...)
	res.windowEnd = append(append([]int{iTimed}, res.windowEnd...), len(sched))
	res.store1 = s.store.Stats()
	runtime.ReadMemStats(&m1)
	res.gcs = m1.NumGC - m0.NumGC
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	res.heapAlloc = mh.HeapAlloc
	return res
}

// cpuPerFrame is the median over the timed replay's windows of the CPU
// time spent in the window per CSI frame offered in it.
func (res *replayResult) cpuPerFrame(in *inputs) (float64, []float64) {
	var per []float64
	for k := 0; k+1 < len(res.windowCPU); k++ {
		frames := 0
		for j := res.windowEnd[k]; j < res.windowEnd[k+1]; j++ {
			sl := in.schedule[j]
			if in.streams[in.sessions[sl.sess].stream].events[sl.ev].kind == evFrame {
				frames++
			}
		}
		if frames > 0 {
			per = append(per, float64(res.windowCPU[k+1]-res.windowCPU[k])/1e3/float64(frames))
		}
	}
	return median(per), per
}
