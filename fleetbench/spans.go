package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Span names: one per call the benchmark makes into a layer.
const (
	spTick       uint8 = iota + 1 // generator: one pass over the items due
	spDecode                      // wifi.DecodePooled
	spPush                        // serve.Manager.Push
	spRoute                       // cluster.Cluster.PushBatch
	spOpen                        // session open (serve or cluster)
	spClose                       // session close
	spScrape                      // obs: WritePrometheus + Tracer.Dump
	spJWrite                      // journal file Write
	spJSync                       // journal file Sync
	spLoad                        // profilestore loader call (cache miss)
	spBuild                       // one driver profile build
	spIngest                      // build: capture decode + sanitize
	spProfiler                    // build: core.Profiler feed and Build
	spSanitize                    // csi.Sanitize (single-threaded replay)
	spPushCSI                     // core.Pipeline.PushCSI
	spMatch                       // core StageMatch, from the stage observer
	spFuse                        // core StageFuse, from the stage observer
	spPushIMU                     // core.Pipeline.PushIMU
	spPushCamera                  // core.Pipeline.PushCamera
	spCount
)

var spanNames = [spCount]string{"", "tick", "wifi.decode", "serve.push", "cluster.route",
	"open", "close", "obs.scrape", "journal.write", "journal.sync", "profilestore.load",
	"profile.build", "build.ingest", "build.profiler", "csi.sanitize", "core.push_csi",
	"dtw.match", "core.fuse", "core.push_imu", "core.push_camera"}

// span is one timed call. Times are ns after the log's origin; parent
// is the parent span's index + 1 (0 for a root). sess and seq form
// the request id: the session index and the item's sequence number in
// its stream (-1 where no request applies).
type span struct {
	start, end int64
	parent     int32
	sess, seq  int32
	name       uint8
}

// spanLog keeps spans in preallocated memory; they are written out
// when the run ends. Untraced runs carry a nil log, and every call
// site checks for it.
type spanLog struct {
	origin  time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// ctl is the control plane's open span (index + 1), the parent of
	// the profile loads the open triggers.
	ctl atomic.Int32
}

func newSpanLog(a *arena, capacity int) *spanLog {
	return &spanLog{origin: time.Now(), spans: alloc[span](a, capacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// add records a finished span and returns its id (index + 1), or 0
// when the log is full.
func (l *spanLog) add(name uint8, parent, sess, seq int32, start, end int64) int32 {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return 0
	}
	l.spans[i] = span{start: start, end: end, parent: parent, sess: sess, seq: seq, name: name}
	return int32(i + 1)
}

// begin reserves a span whose children are recorded before it ends;
// finish closes it. Only the goroutine that began a span finishes it.
func (l *spanLog) begin(name uint8, parent, sess, seq int32) int32 {
	return l.add(name, parent, sess, seq, l.now(), 0)
}

func (l *spanLog) finish(id int32) {
	if id > 0 {
		l.spans[id-1].end = l.now()
	}
}

// recorded returns the spans logged so far. Call only once every
// recording goroutine has stopped.
func (l *spanLog) recorded() []span {
	n := l.n.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// layerTime sums, per span name, the calls, total time and self time
// (total minus the time its children cover). durs keeps each call's
// time for profile loads, whose median is reported.
type layerTime struct {
	calls       int
	total, self int64
	durs        []float64
}

// summarize aggregates the spans keep accepts (all when keep is nil).
func summarize(spans []span, keep func(span) bool) [spCount]layerTime {
	var out [spCount]layerTime
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	for i, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		lt := &out[s.name]
		d := s.end - s.start
		lt.calls++
		lt.total += d
		lt.self += d - child[i]
		if s.name == spLoad {
			lt.durs = append(lt.durs, float64(d))
		}
	}
	return out
}

// writeSpans dumps spans as fixed-width little-endian records (start,
// end int64; parent, sess, seq int32; name uint8 padded to 4 bytes)
// behind a one-line text header naming the span kinds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "fleetbench spans v1 records=%d names=%q\n", len(spans), spanNames[1:])
	var rec [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[20:], uint32(s.sess))
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.seq))
		binary.LittleEndian.PutUint32(rec[28:], uint32(s.name))
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
